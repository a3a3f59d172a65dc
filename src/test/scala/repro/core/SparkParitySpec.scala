package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.geometry.{Generators, PointSet}
import repro.kdtree.KdTree
import repro.mst.UnionFind
import repro.par.{ForkJoinScheme, ParScheme, SeqScheme}
import repro.wspd.{Ctx, EuclidMetric, GeometricSep, MutualReachMetric, MutualUnreachableSep,
  WideSeqScheme, Wspd}

/** Every algorithm must produce identical results under the sequential
  * scheme and the fork-join scheme — the paper's "1 thread" vs "48 cores"
  * methodology depends on the two code paths computing the same thing.
  * The older test names say "spark": the parallel scheme was Spark-backed
  * then, and `SparkScheme` is now a name for the fork-join scheme.
  */
class SparkParitySpec extends AnyFunSuite {

  private val par = ForkJoinScheme

  test("WSPD pairs match between seq and spark schemes") {
    val ps = TestUtil.randomPoints(400, 2, 1)
    val c = Ctx.euclidean(KdTree.build(ps))
    val seqPairs = Wspd.allPairs(c, GeometricSep(2.0), SeqScheme).toSet
    val parPairs = Wspd.allPairs(c, GeometricSep(2.0), par).toSet
    assert(parPairs == seqPairs)
  }

  test("EMST-Naive spark equals seq") {
    val ps = Generators.uniformFill(600, 2, 2)
    val a = EmstNaive.mst(ps, SeqScheme)
    val b = EmstNaive.mst(ps, par)
    // Ordered edges with their orientation: Kruskal sorts under each scheme.
    assert(a.edges == b.edges)
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
    // The round edges are concatenated from the tasks' columns.
    assert(TestUtil.canonicalEdges(a.edges) == TestUtil.canonicalEdges(b.edges))
    TestUtil.assertSameWeight(b.edges, TestUtil.bruteEmst(ps))
  }

  test("EMST-Delaunay spark equals seq") {
    val ps = Generators.uniformFill(400, 2, 5)
    assert(EmstDelaunay.mst(ps, SeqScheme).edges == EmstDelaunay.mst(ps, par).edges)
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
    val seqPairs = Wspd.allPairs(c, MutualUnreachableSep, SeqScheme).toSet
    assert(Wspd.allPairs(c, MutualUnreachableSep, par).toSet == seqPairs)
  }

  test("OPTICS approx spark equals seq") {
    val ps = TestUtil.randomPoints(250, 2, 9)
    val a = OpticsApprox.mst(ps, 10, 0.125, SeqScheme)
    val b = OpticsApprox.mst(ps, 10, 0.125, par)
    assert(a.mst.edges == b.mst.edges)
  }

  test("end-to-end: spark EMST + parallel dendrogram equals seq pipeline") {
    val ps = Generators.ssVarden(800, 2, 10)
    val mstSeq = EmstMemoGfk.mst(ps, SeqScheme).edges
    val mstPar = EmstMemoGfk.mst(ps, par).edges
    TestUtil.assertSameWeight(mstSeq, mstPar)
    val (o1, b1) = Dendrogram.build(ps.n, mstSeq, 0, SeqScheme).reachabilityPlot()
    // Build the dendrogram of the fork-join MST at every width: same point
    // set and same edges (weights here are unique with probability 1), so
    // the plots must be equal bar for bar.
    for (p <- DendrogramSpec.schemes) {
      val (o2, b2) = Dendrogram.build(ps.n, mstPar, 0, p).reachabilityPlot()
      assert(o1.sameElements(o2), p.name)
      assert(b1.sameElements(b2), p.name)
    }
  }

  /** The same frontier width as [[ForkJoinScheme]], run on one thread. */
  private val wide = WideSeqScheme(ForkJoinScheme.targetTasks)

  /** Uniform, clustered, tied (integer grid) and duplicated inputs. */
  private val widthInputs: Seq[(String, PointSet)] = Seq(
    ("ss-varden 3D", Generators.ssVarden(1500, 3, 31)),
    ("uniform 2D", Generators.uniformFill(1500, 2, 32)),
    ("grid 2D", TestUtil.integerGrid(30, 2)),
    ("duplicates 3D", TestUtil.pointsWithDuplicates(800, 3, 33)))

  test("fork-join MemoGFK and HDBSCAN* equal the one-thread run at the same width, edge for edge") {
    val runs: Seq[(String, (PointSet, ParScheme) => MstResult)] = Seq(
      ("EMST-MemoGFK", (ps, p) => EmstMemoGfk.mst(ps, p)),
      ("HDBSCAN*-GanTao", (ps, p) => Hdbscan.mst(ps, 10, GanTao, p).mst),
      ("HDBSCAN*-MemoGFK", (ps, p) => Hdbscan.mst(ps, 10, MemoGfk, p).mst))
    for ((input, ps) <- widthInputs; (name, run) <- runs) {
      val want = run(ps, wide)
      val got = run(ps, par)
      // Ordered edges with their orientation, and every count.
      assert(got.edges == want.edges, s"$name on $input")
      assert(got.stats == want.stats, s"$name on $input")
      assert(run(ps, par) == got, s"$name on $input: two fork-join runs differ")
    }
  }

  test("fork-join WSPD traversals return the one-thread results in task order") {
    for ((input, ps) <- widthInputs) {
      val tree = KdTree.build(ps)
      val uf = new UnionFind(ps.n)
      (0 until ps.n / 3).foreach(i => uf.union(i, i + 1))
      val snap = uf.snapshot()
      val comp = Wspd.nodeComponents(tree, snap)
      val runs = Seq(
        (Ctx.euclidean(tree), GeometricSep(2.0), EuclidMetric),
        (Ctx.mutualReach(tree, CoreDist.compute(tree, 10, SeqScheme)), MutualUnreachableSep,
          MutualReachMetric))
      for ((c, sep, metric) <- runs) {
        val at = s"$input, $sep"
        assert(Wspd.allPairs(c, sep, par) == Wspd.allPairs(c, sep, wide), at)
        for (beta <- Seq(2L, 64L))
          assert(Wspd.getRho(c, sep, metric, beta, comp, par) ==
            Wspd.getRho(c, sep, metric, beta, comp, wide), s"$at beta=$beta")
        val rho = Wspd.getRho(c, sep, metric, 64L, comp, wide)
        for ((lo, hi) <- Seq((0.0, rho), (0.0, Double.PositiveInfinity))) {
          val want = Wspd.getPairs(c, sep, metric, lo, hi, comp, snap, wide)
          val got = Wspd.getPairs(c, sep, metric, lo, hi, comp, snap, par)
          assert(got.bccps == want.bccps, s"$at [$lo, $hi)")
          // The batch columns in the order the tasks emitted them.
          assert(got.edges.u.sameElements(want.edges.u) && got.edges.v.sameElements(want.edges.v) &&
            got.edges.w.sameElements(want.edges.w), s"$at [$lo, $hi)")
        }
      }
    }
  }
}
