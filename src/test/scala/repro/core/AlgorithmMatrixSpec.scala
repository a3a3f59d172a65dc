package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.geometry.{Generators, PointSet}
import repro.par.SeqScheme
import repro.wspd.WideSeqScheme

/** Fine-grained correctness matrix: one registered test per
  * (algorithm, data shape, dimension, seed) cell, so a regression pinpoints
  * the exact configuration that broke. Sizes are small enough for the dense
  * Prim oracle.
  */
class AlgorithmMatrixSpec extends AnyFunSuite {

  private val emstAlgos: Seq[(String, PointSet => IndexedSeq[repro.mst.Edge])] = Seq(
    ("EMST-Naive", ps => EmstNaive.mst(ps, SeqScheme).edges),
    ("EMST-GFK", ps => EmstGfk.mst(ps, SeqScheme).edges),
    ("EMST-MemoGFK", ps => EmstMemoGfk.mst(ps, SeqScheme).edges),
    ("DualTreeBoruvka", ps => repro.baseline.DualTreeBoruvka.mst(ps)),
  )

  private val shapes: Seq[(String, (Int, Int, Long) => PointSet)] = Seq(
    ("uniform", (n, d, s) => TestUtil.randomPoints(n, d, s)),
    ("varden", (n, d, s) => Generators.ssVarden(n, d, s)),
    ("clustered", (n, d, s) => TestUtil.clusteredPoints(n, d, s)),
    ("duplicates", (n, d, s) => TestUtil.pointsWithDuplicates(n, d, s)),
  )

  for {
    (aName, algo) <- emstAlgos
    (sName, gen) <- shapes
    dim <- Seq(2, 3, 5)
  } test(s"$aName / $sName / ${dim}D matches dense Prim") {
    val ps = gen(90, dim, 1000L + dim)
    val got = algo(ps)
    assert(got.size == ps.n - 1)
    TestUtil.assertSameWeight(got, TestUtil.bruteEmst(ps))
  }

  for {
    (vName, variant) <- Seq(("GanTao", GanTao: HdbscanVariant), ("MemoGFK", MemoGfk: HdbscanVariant))
    (sName, gen) <- shapes
    minPts <- Seq(2, 5, 10)
  } test(s"HDBSCAN*-$vName / $sName / minPts=$minPts matches dense Prim on G_MR") {
    val ps = gen(90, 2, 2000L + minPts)
    val got = Hdbscan.mst(ps, minPts, variant, SeqScheme)
    assert(got.mst.edges.size == ps.n - 1)
    TestUtil.assertSameWeight(got.mst.edges, TestUtil.bruteMutualReachMst(ps, minPts))
  }

  for {
    (sName, gen) <- shapes
    seed <- Seq(1L, 2L)
  } test(s"ordered dendrogram / $sName / seed=$seed: in-order equals Prim order") {
    val ps = gen(80, 2, 3000L + seed)
    val mst = TestUtil.bruteEmst(ps)
    // Tie-heavy inputs (duplicates) exercise the deterministic tie-breaking.
    val d = Dendrogram.build(ps.n, mst, 0, SeqScheme)
    val (order, bars) = d.reachabilityPlot()
    val (wantOrder, wantBars) = Prim0.treeOrder(ps.n, mst, 0)
    assert(order.sameElements(wantOrder))
    bars.zip(wantBars).foreach { case (a, b) => assert(a == b || math.abs(a - b) < 1e-12) }
  }

  // `cutoff` is the split grain: at width ⌈(n − 1) / cutoff⌉, ranges of at
  // most `cutoff` edges merge whole.
  for {
    (sName, gen) <- shapes
    cutoff <- Seq(8, 64)
  } test(s"parallel dendrogram / $sName / cutoff=$cutoff equals sequential") {
    val ps = gen(120, 2, 4000L + cutoff)
    DendrogramSpec.assertEveryScheme(ps.n, TestUtil.bruteEmst(ps), 0, sName,
      DendrogramSpec.schemes :+ WideSeqScheme((ps.n - 2) / cutoff + 1))
  }

  // Alias to keep the import section tidy inside the loops above.
  private object Prim0 {
    def treeOrder(n: Int, edges: IndexedSeq[repro.mst.Edge], s: Int): (Array[Int], Array[Double]) =
      repro.mst.Prim.treeOrder(n, edges, s)
  }
}
