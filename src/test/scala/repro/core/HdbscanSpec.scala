package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.geometry.Generators
import repro.kdtree.KdTree
import repro.mst.UnionFind
import repro.par.SeqScheme
import repro.wspd.WideSeqScheme

class CoreDistSpec extends AnyFunSuite {

  private val single = repro.geometry.PointSet.fromRows(Seq(Array(7.0, -7.0)))
  private val allDuplicates = repro.geometry.PointSet.fromRows(Seq.fill(40)(Array(2.5, -1.0)))
  private val collinearLine =
    repro.geometry.PointSet.fromRows((0 until 60).map(i => Array(i * 0.5, 3.0 - i * 0.25)))

  // Bit-for-bit: the k-NN keeps squared distances, and sqrt is monotone and
  // correctly rounded, so sqrt of the k-th smallest square is the k-th
  // smallest of the brute force's square-rooted distances.
  test("core distances match brute force across minPts and dims") {
    def check(name: String, ps: repro.geometry.PointSet, minPts: Int): Unit = {
      val got = CoreDist.compute(KdTree.build(ps), minPts, SeqScheme)
      val want = TestUtil.bruteCoreDist(ps, minPts)
      (0 until ps.n).foreach(i => assert(got(i) == want(i), s"$name minPts=$minPts point $i"))
    }
    for (dim <- Seq(2, 3, 7); minPts <- Seq(1, 2, 10))
      check(s"uniform ${dim}D", TestUtil.randomPoints(120, dim, seed = dim * 10 + minPts), minPts)
    val adversarial = Seq(
      "integer grid 2D" -> TestUtil.integerGrid(12, 2),
      "integer grid 3D" -> TestUtil.integerGrid(5, 3),
      "all duplicates" -> allDuplicates,
      "collinear line" -> collinearLine)
    for ((name, ps) <- adversarial; minPts <- Seq(1, 2, 5, 17, ps.n)) check(name, ps, minPts)
    check("n = 1", single, 1)
    val small = TestUtil.randomPoints(30, 2, seed = 31)
    check("minPts = n", small, small.n)
  }

  test("minPts=1 core distances are all zero") {
    val ps = TestUtil.randomPoints(50, 2, 1)
    val cd = CoreDist.compute(KdTree.build(ps), 1, SeqScheme)
    assert(cd.forall(_ == 0.0))
  }

  test("core distances are monotone in minPts") {
    val ps = TestUtil.randomPoints(80, 3, 2)
    val tree = KdTree.build(ps)
    val cd2 = CoreDist.compute(tree, 2, SeqScheme)
    val cd10 = CoreDist.compute(tree, 10, SeqScheme)
    cd2.zip(cd10).foreach { case (a, b) => assert(a <= b + 1e-12) }
  }

  test("core distance on duplicated points is zero for small minPts") {
    val ps = repro.geometry.PointSet.fromRows(
      Seq.fill(5)(Array(1.0, 1.0)) ++ Seq(Array(50.0, 50.0)))
    val cd = CoreDist.compute(KdTree.build(ps), 3, SeqScheme)
    (0 until 5).foreach(i => assert(cd(i) == 0.0))
    assert(cd(5) > 0.0)
  }

  // Widths above 1 run the ranges on the fork-join pool; 100000 gives every
  // kd-tree position a range of its own, and n = 3 has fewer points than
  // ranges at every width.
  test("core distances are bitwise equal under every fan-out width") {
    val sets = Seq(
      "uniform 3D" -> TestUtil.randomPoints(300, 3, 4),
      "with duplicates" -> TestUtil.pointsWithDuplicates(200, 2, 5),
      "integer grid" -> TestUtil.integerGrid(15, 2),
      "n = 1" -> single,
      "n = 3" -> TestUtil.randomPoints(3, 2, 6),
      "all duplicates" -> allDuplicates,
      "collinear line" -> collinearLine)
    for ((name, ps) <- sets; minPts <- Seq(1, 10, ps.n).filter(_ <= ps.n).distinct) {
      val tree = KdTree.build(ps)
      val want = CoreDist.compute(tree, minPts, SeqScheme)
      for (par <- Seq(7, 64, 100000).map(WideSeqScheme))
        assert(CoreDist.compute(tree, minPts, par).sameElements(want), s"$name ${par.name} minPts=$minPts")
    }
  }

  test("compute rejects invalid minPts") {
    val tree = KdTree.build(TestUtil.randomPoints(10, 2, 3))
    intercept[IllegalArgumentException](CoreDist.compute(tree, 0, SeqScheme))
    intercept[IllegalArgumentException](CoreDist.compute(tree, 11, SeqScheme))
  }

  test("chunkRanges tiles [0, n) exactly") {
    for ((n, p) <- Seq((10, 3), (100, 7), (5, 10), (1, 1))) {
      val ranges = CoreDist.chunkRanges(n, p)
      assert(ranges.map { case (lo, hi) => hi - lo }.sum == n)
      assert(ranges.head._1 == 0 && ranges.last._2 == n)
      ranges.sliding(2).foreach {
        case Seq((_, h), (l, _)) => assert(h == l)
        case _ =>
      }
    }
  }
}

class HdbscanSpec extends AnyFunSuite {

  private val variants = Seq(("GanTao", GanTao: HdbscanVariant), ("MemoGFK", MemoGfk: HdbscanVariant))

  test("HDBSCAN* MST matches dense Prim on the mutual reachability graph") {
    for ((name, v) <- variants; dim <- Seq(2, 3); minPts <- Seq(2, 5, 10)) {
      val ps = TestUtil.randomPoints(100, dim, seed = dim + minPts)
      val got = Hdbscan.mst(ps, minPts, v, SeqScheme)
      val want = TestUtil.bruteMutualReachMst(ps, minPts)
      assert(got.mst.edges.size == ps.n - 1, s"$name dim=$dim minPts=$minPts")
      TestUtil.assertSameWeight(got.mst.edges, want)
    }
  }

  test("HDBSCAN* MST on clustered/varden data matches brute force") {
    for ((name, v) <- variants) {
      val varden = Generators.ssVarden(150, 2, 5)
      TestUtil.assertSameWeight(
        Hdbscan.mst(varden, 10, v, SeqScheme).mst.edges,
        TestUtil.bruteMutualReachMst(varden, 10))
      val clustered = TestUtil.clusteredPoints(120, 3, 6)
      TestUtil.assertSameWeight(
        Hdbscan.mst(clustered, 10, v, SeqScheme).mst.edges,
        TestUtil.bruteMutualReachMst(clustered, 10))
    }
  }

  test("both variants produce identical MST weight") {
    val ps = Generators.sensorLike(200, 7, seed = 7)
    val a = Hdbscan.mst(ps, 10, GanTao, SeqScheme)
    val b = Hdbscan.mst(ps, 10, MemoGfk, SeqScheme)
    TestUtil.assertSameWeight(a.mst.edges, b.mst.edges)
  }

  test("minPts=1 reduces to the EMST (Appendix D)") {
    val ps = TestUtil.randomPoints(100, 2, 8)
    val hd = Hdbscan.mst(ps, 1, MemoGfk, SeqScheme)
    TestUtil.assertSameWeight(hd.mst.edges, TestUtil.bruteEmst(ps))
  }

  test("minPts<=3: EMST weight equals MST weight of G_MR under d_m (Thm D.1)") {
    val ps = TestUtil.randomPoints(90, 2, 9)
    for (minPts <- Seq(2, 3)) {
      val cd = TestUtil.bruteCoreDist(ps, minPts)
      val emst = TestUtil.bruteEmst(ps)
      // Weigh the EMST edges under mutual reachability.
      val emstUnderDm = emst.map(e =>
        e.copy(w = math.max(math.max(cd(e.u), cd(e.v)), ps.dist(e.u, e.v))))
      val gmrMst = TestUtil.bruteMutualReachMst(ps, minPts)
      TestUtil.assertSameWeight(emstUnderDm, gmrMst)
    }
  }

  test("edge weights are genuine mutual reachability distances") {
    val ps = TestUtil.randomPoints(80, 3, 10)
    val minPts = 5
    val got = Hdbscan.mst(ps, minPts, MemoGfk, SeqScheme)
    val cd = TestUtil.bruteCoreDist(ps, minPts)
    got.mst.edges.foreach { e =>
      val dm = math.max(math.max(cd(e.u), cd(e.v)), ps.dist(e.u, e.v))
      assert(math.abs(dm - e.w) < 1e-9)
    }
  }

  test("MemoGFK variant materializes no more pairs than GanTao (space claim)") {
    val ps = Generators.ssVarden(1500, 3, 11)
    val a = Hdbscan.mst(ps, 10, GanTao, SeqScheme)
    val b = Hdbscan.mst(ps, 10, MemoGfk, SeqScheme)
    assert(b.mst.stats.pairsMaterialized <= a.mst.stats.pairsMaterialized)
  }

  test("HDBSCAN* MST spans all points") {
    val ps = TestUtil.pointsWithDuplicates(100, 2, 12)
    for ((name, v) <- variants) {
      val got = Hdbscan.mst(ps, 4, v, SeqScheme)
      val uf = new UnionFind(ps.n)
      got.mst.edges.foreach(e => uf.union(e.u, e.v))
      assert(uf.components == 1, name)
    }
  }

  test("larger minPts never decreases total MST weight") {
    val ps = TestUtil.randomPoints(80, 2, 13)
    val w5 = TestUtil.weightOf(Hdbscan.mst(ps, 5, MemoGfk, SeqScheme).mst.edges)
    val w20 = TestUtil.weightOf(Hdbscan.mst(ps, 20, MemoGfk, SeqScheme).mst.edges)
    assert(w20 >= w5 - 1e-9)
  }

  // Pinned traversal work (see EmstSpec): the counts move with any change
  // to the separation test or the bounds, and are equal at every width.
  test("HDBSCAN*-MemoGFK does the pinned amount of work on a 2D uniform set") {
    val r = Hdbscan.mst(Generators.uniformFill(3000, 2, 5), 10, MemoGfk, SeqScheme).mst
    assert(r.stats == MstStats(pairsMaterialized = 13224, peakLivePairs = 12930,
      bccpComputed = 15118, rounds = 5))
    assert(TestUtil.weightOf(r.edges) == 5157.614987674511)
  }
}

class OpticsApproxSpec extends AnyFunSuite {

  test("approximate MST weight is close to the exact HDBSCAN* MST weight") {
    for (rho <- Seq(0.125, 0.5)) {
      val ps = TestUtil.randomPoints(150, 2, 1)
      val minPts = 10
      val approx = OpticsApprox.mst(ps, minPts, rho, SeqScheme)
      val exactW = TestUtil.weightOf(TestUtil.bruteMutualReachMst(ps, minPts))
      val approxW = TestUtil.weightOf(approx.mst.edges)
      // Lower bound: every base-graph weight is >= d_m/(1+rho), so the
      // approximate MST cannot undershoot by more than that factor.
      assert(approxW >= exactW / (1.0 + rho) - 1e-9, s"rho=$rho: $approxW vs $exactW")
      // Upper bound: representatives displace endpoints by at most the node
      // diameters, i.e. a (1 + sqrt(2*rho)) factor at separation sqrt(8/rho).
      assert(approxW <= exactW * (1.0 + 2.0 * math.sqrt(rho)) + 1e-9,
        s"rho=$rho: $approxW vs $exactW")
    }
  }

  test("approximate MST spans all points") {
    val ps = Generators.ssVarden(200, 2, 2)
    val res = OpticsApprox.mst(ps, 10, 0.125, SeqScheme)
    assert(res.mst.edges.size == ps.n - 1)
    val uf = new UnionFind(ps.n)
    res.mst.edges.foreach(e => uf.union(e.u, e.v))
    assert(uf.components == 1)
  }

  test("smaller rho (higher separation) produces at least as many WSPD pairs") {
    val ps = TestUtil.randomPoints(150, 2, 3)
    val loose = OpticsApprox.mst(ps, 10, 0.5, SeqScheme)
    val tight = OpticsApprox.mst(ps, 10, 0.125, SeqScheme)
    assert(tight.mst.stats.pairsMaterialized >= loose.mst.stats.pairsMaterialized)
  }

  test("rho must be positive") {
    intercept[IllegalArgumentException] {
      OpticsApprox.mst(TestUtil.randomPoints(10, 2, 4), 3, 0.0, SeqScheme)
    }
  }

  test("minPts=1 with tiny rho approaches the EMST weight") {
    val rho = 0.01
    val ps = TestUtil.randomPoints(100, 2, 5)
    val res = OpticsApprox.mst(ps, 1, rho, SeqScheme)
    val emstW = TestUtil.weightOf(TestUtil.bruteEmst(ps))
    val w = TestUtil.weightOf(res.mst.edges)
    assert(w >= emstW / (1.0 + rho) - 1e-9)
    assert(w <= emstW * (1.0 + 2.0 * math.sqrt(rho)) + 1e-9)
  }
}
