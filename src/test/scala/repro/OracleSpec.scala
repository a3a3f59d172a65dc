package repro

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}

import repro.core.CoreDist
import repro.geometry.Generators
import repro.kdtree.KdTree
import repro.par.SeqScheme
import repro.wspd.{Ctx, EuclidMetric}

/** Cross-checks of the geometric primitives against DuckDB SQL over the
  * same point tables (repro.Oracle) — an independent engine validating the
  * quantities every algorithm is built on.
  */
class OracleSpec extends SparkSpec {

  private def df(rows: Seq[Row], fields: StructField*) =
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 4),
      StructType(fields.toArray))

  private def sqlDist2(dim: Int, a: String = "a", b: String = "b"): String =
    (0 until dim)
      .map(k => s"(CAST($a.x$k AS DOUBLE)-CAST($b.x$k AS DOUBLE))*(CAST($a.x$k AS DOUBLE)-CAST($b.x$k AS DOUBLE))")
      .mkString(" + ")

  test("core distances equal the minPts-th smallest pairwise distance in SQL") {
    val ps = TestUtil.randomPoints(60, 2, 1)
    val minPts = 5
    val cd = CoreDist.compute(KdTree.build(ps), minPts, SeqScheme)
    val cdDf = df(
      (0 until ps.n).map(i => Row(i.toLong, cd(i))),
      StructField("id", LongType), StructField("cd", DoubleType))
    Oracle.assertEquivalent(
      cdDf,
      s"""SELECT id, cd FROM (
         |  SELECT CAST(a.id AS BIGINT) AS id,
         |         sqrt(${sqlDist2(2)}) AS cd,
         |         row_number() OVER (PARTITION BY a.id ORDER BY sqrt(${sqlDist2(2)})) AS rn
         |  FROM pts a CROSS JOIN pts b
         |) WHERE rn = $minPts""".stripMargin,
      "pts" -> Generators.toDF(spark, ps))
  }

  test("BCCP of two kd-tree siblings equals the SQL cross-join minimum") {
    val ps = TestUtil.randomPoints(80, 3, 2)
    val tree = KdTree.build(ps)
    val c = Ctx.euclidean(tree)
    val a = tree.left(tree.root)
    val b = tree.right(tree.root)
    val e = EuclidMetric.bccp(c, a, b)
    val idsA = tree.pointsUnder(a).mkString(",")
    val idsB = tree.pointsUnder(b).mkString(",")
    val got = df(Seq(Row(e.w)), StructField("bccp", DoubleType))
    Oracle.assertEquivalent(
      got,
      s"""SELECT min(sqrt(${sqlDist2(3)})) AS bccp
         |FROM pts a CROSS JOIN pts b
         |WHERE CAST(a.id AS BIGINT) IN ($idsA) AND CAST(b.id AS BIGINT) IN ($idsB)""".stripMargin,
      "pts" -> Generators.toDF(spark, ps))
  }

  test("epsilon-neighborhood counts (DBSCAN* core predicate) match SQL") {
    val ps = TestUtil.clusteredPoints(70, 2, 3)
    val eps = 2.0
    val counts = (0 until ps.n).map { i =>
      (0 until ps.n).count(j => ps.dist(i, j) <= eps)
    }
    val got = df(
      (0 until ps.n).map(i => Row(i.toLong, counts(i).toLong)),
      StructField("id", LongType), StructField("cnt", LongType))
    Oracle.assertEquivalent(
      got,
      s"""SELECT CAST(a.id AS BIGINT) AS id, count(*) AS cnt
         |FROM pts a CROSS JOIN pts b
         |WHERE sqrt(${sqlDist2(2)}) <= $eps
         |GROUP BY a.id""".stripMargin,
      "pts" -> Generators.toDF(spark, ps))
  }

  test("mutual reachability distances of MST edges match SQL greatest()") {
    val ps = TestUtil.randomPoints(50, 2, 4)
    val minPts = 4
    val res = repro.core.Hdbscan.mst(ps, minPts, repro.core.MemoGfk, SeqScheme)
    val cdDf = df(
      (0 until ps.n).map(i => Row(i.toLong, res.coreDist(i))),
      StructField("id", LongType), StructField("cd", DoubleType))
    val edgeDf = df(
      res.mst.edges.map(e => Row(e.u.toLong, e.v.toLong, e.w)),
      StructField("u", LongType), StructField("v", LongType), StructField("w", DoubleType))
    Oracle.assertEquivalent(
      edgeDf,
      s"""SELECT CAST(e.u AS BIGINT) AS u, CAST(e.v AS BIGINT) AS v,
         |       greatest(CAST(cu.cd AS DOUBLE), CAST(cv.cd AS DOUBLE),
         |                sqrt(${sqlDist2(2, "a", "b")})) AS w
         |FROM edges e
         |JOIN pts a ON CAST(a.id AS BIGINT) = CAST(e.u AS BIGINT)
         |JOIN pts b ON CAST(b.id AS BIGINT) = CAST(e.v AS BIGINT)
         |JOIN cds cu ON CAST(cu.id AS BIGINT) = CAST(e.u AS BIGINT)
         |JOIN cds cv ON CAST(cv.id AS BIGINT) = CAST(e.v AS BIGINT)""".stripMargin,
      "pts" -> Generators.toDF(spark, ps),
      "cds" -> cdDf,
      "edges" -> edgeDf.selectExpr("u", "v"))
  }
}
