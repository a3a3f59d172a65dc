package repro.core

import repro.{SparkSpec, TestUtil}
import repro.geometry.Generators
import repro.kdtree.KdTree
import repro.par.{SeqScheme, SparkScheme}
import repro.wspd.{Ctx, GeometricSep, MutualUnreachableSep, Wspd}

/** Every algorithm must produce identical results under the sequential
  * scheme and the Spark RDD fan-out scheme — the paper's "1 thread" vs
  * "48 cores" methodology depends on the two code paths computing the same
  * thing.
  */
class SparkParitySpec extends SparkSpec {

  private lazy val par = new SparkScheme(spark.sparkContext)

  test("WSPD pairs match between seq and spark schemes") {
    val ps = TestUtil.randomPoints(400, 2, 1)
    val c = Ctx.euclidean(KdTree.build(ps))
    val seqPairs = Wspd.allPairs(SeqScheme.share(c), GeometricSep(2.0), SeqScheme).toSet
    val sc = par.share(c)
    try {
      val parPairs = Wspd.allPairs(sc, GeometricSep(2.0), par).toSet
      assert(parPairs == seqPairs)
    } finally sc.release()
  }

  test("EMST-Naive spark equals seq") {
    val ps = Generators.uniformFill(600, 2, 2)
    val a = EmstNaive.mst(ps, SeqScheme)
    val b = EmstNaive.mst(ps, par)
    TestUtil.assertSameWeight(a.edges, b.edges)
    assert(a.stats.pairsMaterialized == b.stats.pairsMaterialized)
  }

  test("EMST-GFK spark equals seq") {
    val ps = Generators.uniformFill(600, 3, 3)
    TestUtil.assertSameWeight(
      EmstGfk.mst(ps, SeqScheme).edges,
      EmstGfk.mst(ps, par).edges)
  }

  test("EMST-MemoGFK spark equals seq and matches brute force") {
    val ps = Generators.ssVarden(500, 2, 4)
    val a = EmstMemoGfk.mst(ps, SeqScheme)
    val b = EmstMemoGfk.mst(ps, par)
    TestUtil.assertSameWeight(a.edges, b.edges)
    // The round edges cross a Kryo collect as columns under Spark.
    assert(TestUtil.canonicalEdges(a.edges) == TestUtil.canonicalEdges(b.edges))
    TestUtil.assertSameWeight(b.edges, TestUtil.bruteEmst(ps))
  }

  test("EMST-Delaunay spark equals seq") {
    val ps = Generators.uniformFill(400, 2, 5)
    TestUtil.assertSameWeight(
      EmstDelaunay.mst(ps, SeqScheme).edges,
      EmstDelaunay.mst(ps, par).edges)
  }

  test("core distances spark equals seq") {
    val ps = Generators.ssVarden(500, 3, 6)
    val tree = KdTree.build(ps)
    val a = CoreDist.compute(tree, 10, SeqScheme)
    val b = CoreDist.compute(tree, 10, par)
    assert(a.sameElements(b))
  }

  test("HDBSCAN* (both variants) spark equals seq and matches brute force") {
    val ps = TestUtil.clusteredPoints(300, 2, 7)
    val want = TestUtil.bruteMutualReachMst(ps, 10)
    for (v <- Seq(GanTao: HdbscanVariant, MemoGfk: HdbscanVariant)) {
      val s = Hdbscan.mst(ps, 10, v, SeqScheme)
      val p = Hdbscan.mst(ps, 10, v, par)
      TestUtil.assertSameWeight(s.mst.edges, p.mst.edges)
      assert(TestUtil.canonicalEdges(s.mst.edges) == TestUtil.canonicalEdges(p.mst.edges), v)
      TestUtil.assertSameWeight(p.mst.edges, want)
      assert(s.coreDist.sameElements(p.coreDist))
    }
  }

  test("HDBSCAN* WSPD (new separation) parity between schemes") {
    val ps = TestUtil.randomPoints(300, 3, 8)
    val cd = CoreDist.compute(KdTree.build(ps), 10, SeqScheme)
    val c = Ctx.mutualReach(KdTree.build(ps), cd)
    val seqPairs = Wspd.allPairs(SeqScheme.share(c), MutualUnreachableSep, SeqScheme).toSet
    val sc = par.share(c)
    try {
      assert(Wspd.allPairs(sc, MutualUnreachableSep, par).toSet == seqPairs)
    } finally sc.release()
  }

  test("OPTICS approx spark equals seq") {
    val ps = TestUtil.randomPoints(250, 2, 9)
    val a = OpticsApprox.mst(ps, 10, 0.125, SeqScheme)
    val b = OpticsApprox.mst(ps, 10, 0.125, par)
    TestUtil.assertSameWeight(a.mst.edges, b.mst.edges)
  }

  test("end-to-end: spark EMST + parallel dendrogram equals seq pipeline") {
    val ps = Generators.ssVarden(800, 2, 10)
    val mstSeq = EmstMemoGfk.mst(ps, SeqScheme).edges
    val mstPar = EmstMemoGfk.mst(ps, par).edges
    TestUtil.assertSameWeight(mstSeq, mstPar)
    val dSeq = Dendrogram.buildSequential(ps.n, mstSeq, s = 0)
    // Build the parallel dendrogram on the Spark-produced MST: same point
    // set, same weights, so the plots must agree even if tie-broken edges
    // differ in identity (weights here are unique with probability 1).
    val dPar = Dendrogram.buildParallel(ps.n, mstPar, s = 0, cutoff = 64)
    val (o1, b1) = dSeq.reachabilityPlot()
    val (o2, b2) = dPar.reachabilityPlot()
    assert(o1.sameElements(o2))
    b1.zip(b2).foreach { case (x, y) => assert(x == y || math.abs(x - y) < 1e-9) }
  }
}
