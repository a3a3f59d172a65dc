package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.baseline.DualTreeBoruvka
import repro.geometry.{Generators, PointSet}
import repro.mst.UnionFind
import repro.par.SeqScheme

class EmstSpec extends AnyFunSuite {

  private val algos: Seq[(String, repro.geometry.PointSet => MstResult)] = Seq(
    ("naive", ps => EmstNaive.mst(ps, SeqScheme)),
    ("gfk", ps => EmstGfk.mst(ps, SeqScheme)),
    ("memogfk", ps => EmstMemoGfk.mst(ps, SeqScheme)),
  )

  test("all EMST algorithms match dense Prim weight on random data") {
    for ((name, algo) <- algos; dim <- Seq(1, 2, 3, 5); seed <- Seq(1L, 2L)) {
      val ps = TestUtil.randomPoints(120, dim, seed)
      val got = algo(ps)
      assert(got.edges.size == ps.n - 1, s"$name dim=$dim")
      TestUtil.assertSameWeight(got.edges, TestUtil.bruteEmst(ps))
    }
  }

  test("all EMST algorithms match the exact edge set when weights are unique") {
    for ((name, algo) <- algos) {
      val ps = TestUtil.randomPoints(100, 2, 7)
      val got = TestUtil.canonicalEdges(algo(ps).edges)
      val want = TestUtil.canonicalEdges(TestUtil.bruteEmst(ps))
      assert(got == want, s"$name edge sets differ")
    }
  }

  test("EMST algorithms agree with each other on clustered data") {
    val ps = TestUtil.clusteredPoints(150, 3, 11)
    val results = algos.map { case (n, a) => (n, a(ps)) }
    val w0 = TestUtil.weightOf(results.head._2.edges)
    results.foreach { case (name, r) =>
      assert(math.abs(TestUtil.weightOf(r.edges) - w0) < 1e-7, name)
    }
  }

  test("EMST handles duplicate points (zero-weight edges)") {
    for ((name, algo) <- algos) {
      val ps = TestUtil.pointsWithDuplicates(80, 2, 12)
      val got = algo(ps)
      assert(got.edges.size == ps.n - 1, name)
      TestUtil.assertSameWeight(got.edges, TestUtil.bruteEmst(ps))
      assert(got.edges.exists(_.w == 0.0), s"$name should contain 0-weight duplicate edges")
    }
  }

  test("EMST on SS-varden and sensor-like data matches brute force") {
    for ((name, algo) <- algos) {
      val varden = Generators.ssVarden(150, 2, 13)
      TestUtil.assertSameWeight(algo(varden).edges, TestUtil.bruteEmst(varden))
      val sensor = Generators.sensorLike(120, 7, seed = 14)
      TestUtil.assertSameWeight(algo(sensor).edges, TestUtil.bruteEmst(sensor))
    }
  }

  test("EMST works at tiny sizes") {
    for ((name, algo) <- algos; n <- Seq(2, 3, 5)) {
      val ps = TestUtil.randomPoints(n, 2, 15)
      val got = algo(ps)
      assert(got.edges.size == n - 1, s"$name n=$n")
      TestUtil.assertSameWeight(got.edges, TestUtil.bruteEmst(ps))
    }
  }

  test("MST edges returned are genuine point pairs with their distances") {
    val ps = TestUtil.randomPoints(90, 3, 16)
    for ((name, algo) <- algos) {
      algo(ps).edges.foreach { e =>
        assert(e.u != e.v, name)
        assert(math.abs(ps.dist(e.u, e.v) - e.w) < 1e-9, name)
      }
    }
  }

  test("MemoGFK materializes fewer pairs than the full WSPD (memory claim)") {
    val ps = Generators.uniformFill(2000, 2, 17)
    val naive = EmstNaive.mst(ps, SeqScheme)
    val memo = EmstMemoGfk.mst(ps, SeqScheme)
    TestUtil.assertSameWeight(naive.edges, memo.edges)
    assert(memo.stats.peakLivePairs < naive.stats.pairsMaterialized,
      s"peak ${memo.stats.peakLivePairs} vs full WSPD ${naive.stats.pairsMaterialized}")
  }

  test("GFK computes fewer BCCPs than Naive (filtering claim)") {
    val ps = Generators.uniformFill(2000, 2, 18)
    val naive = EmstNaive.mst(ps, SeqScheme)
    val gfk = EmstGfk.mst(ps, SeqScheme)
    TestUtil.assertSameWeight(naive.edges, gfk.edges)
    assert(gfk.stats.bccpComputed < naive.stats.bccpComputed,
      s"${gfk.stats.bccpComputed} vs ${naive.stats.bccpComputed}")
  }

  test("pair budget guard triggers (the paper's OOM '-' cells)") {
    val ps = TestUtil.randomPoints(200, 2, 19)
    intercept[PairBudgetExceeded](EmstNaive.mst(ps, SeqScheme, pairBudget = 10))
    intercept[PairBudgetExceeded](EmstGfk.mst(ps, SeqScheme, pairBudget = 10))
  }

  test("resulting edges form a spanning tree (connectivity check)") {
    val ps = TestUtil.randomPoints(130, 5, 20)
    for ((name, algo) <- algos) {
      val uf = new UnionFind(ps.n)
      algo(ps).edges.foreach(e => uf.union(e.u, e.v))
      assert(uf.components == 1, name)
    }
  }

  // Pinned traversal work: any change to the separation test or the bounds
  // that shifts MemoGFK's pruning moves these counts, even where the MST
  // stays the same. The visit order does not: they are equal at every width.
  test("EMST-MemoGFK does the pinned amount of work on a 5D uniform set") {
    val r = EmstMemoGfk.mst(Generators.uniformFill(2000, 5, 5), SeqScheme)
    assert(r.stats == MstStats(pairsMaterialized = 14611, peakLivePairs = 13953,
      bccpComputed = 34225, rounds = 4))
    assert(TestUtil.weightOf(r.edges) == 14935.456983427814)
  }
}

class EmstDelaunaySpec extends AnyFunSuite {

  test("EMST-Delaunay matches dense Prim on random 2D data") {
    // Also on the sets that are hardest for floating-point predicates:
    // ties, cocircular and collinear points, a large coordinate offset,
    // all-equal points and the smallest sizes.
    val hostile = Seq(
      TestUtil.integerGrid(30, 2),
      TestUtil.cocircularRing(2000),
      PointSet.fromRows((0 until 300).map(i => Array(i.toDouble, 3.0 * i - 7.0))),
      new PointSet(TestUtil.randomPoints(300, 2, 4).coords.map(_ + 1e9), 2),
      PointSet.fromRows(Seq.fill(50)(Array(3.5, -2.25))))
    val tiny = Seq(1, 2, 3).map(n => TestUtil.randomPoints(n, 2, n.toLong))
    for (ps <- Seq(1L, 2L, 3L).map(TestUtil.randomPoints(150, 2, _)) ++ hostile ++ tiny) {
      val got = EmstDelaunay.mst(ps, SeqScheme)
      assert(got.edges.size == ps.n - 1)
      TestUtil.assertSameWeight(got.edges, TestUtil.bruteEmst(ps))
    }
  }

  test("EMST-Delaunay matches EMST-MemoGFK on varden data") {
    val ps = Generators.ssVarden(300, 2, 4)
    TestUtil.assertSameWeight(
      EmstDelaunay.mst(ps, SeqScheme).edges,
      EmstMemoGfk.mst(ps, SeqScheme).edges)
  }

  test("EMST-Delaunay handles duplicates") {
    val ps = TestUtil.pointsWithDuplicates(100, 2, 5)
    val got = EmstDelaunay.mst(ps, SeqScheme)
    assert(got.edges.size == ps.n - 1)
    TestUtil.assertSameWeight(got.edges, TestUtil.bruteEmst(ps))
  }

  test("EMST-Delaunay rejects non-2D input") {
    intercept[IllegalArgumentException] {
      EmstDelaunay.mst(TestUtil.randomPoints(10, 3, 6), SeqScheme)
    }
  }

  test("every EMST, HDBSCAN* and OPTICS entry point rejects an empty point set") {
    val runs: Seq[(String, PointSet => Any)] = Seq(
      ("EMST-Naive", EmstNaive.mst(_, SeqScheme)),
      ("EMST-GFK", EmstGfk.mst(_, SeqScheme)),
      ("EMST-MemoGFK", EmstMemoGfk.mst(_, SeqScheme)),
      ("EMST-Delaunay", EmstDelaunay.mst(_, SeqScheme)),
      ("HDBSCAN*-GanTao", Hdbscan.mst(_, 1, GanTao, SeqScheme)),
      ("HDBSCAN*-MemoGFK", Hdbscan.mst(_, 1, MemoGfk, SeqScheme)),
      ("OPTICS-GanTaoApprox", OpticsApprox.mst(_, 1, 0.125, SeqScheme)),
      ("DualTreeBoruvka", DualTreeBoruvka.mst(_)))
    for ((name, run) <- runs) {
      val e = intercept[IllegalArgumentException](run(new PointSet(Array.empty, 2)))
      assert(e.getMessage.contains("empty point set"), s"$name: ${e.getMessage}")
    }
  }
}
