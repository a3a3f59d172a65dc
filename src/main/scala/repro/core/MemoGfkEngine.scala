package repro.core

import scala.collection.mutable.ArrayBuffer

import repro.mst.{Edge, Kruskal, UnionFind}
import repro.par.ParScheme
import repro.wspd.{Ctx, Metric, Sep, Wspd}

/** Statistics reported next to each MST run — `pairsMaterialized` is the
  * quantity behind the paper's memory-usage claims (MemoGFK materializes
  * only the per-round S_l1 pairs; Naive/GFK materialize the full WSPD).
  *
  * @param pairsMaterialized candidate edges materialized, summed over
  *   rounds: the full WSPD for Naive/GFK, each round's in-window BCCP
  *   edges for MemoGFK, the triangulation's edges for Delaunay
  * @param peakLivePairs the most candidate edges held at one time: the
  *   full WSPD for Naive/GFK, the largest round for MemoGFK
  * @param bccpComputed BCCP (or BCCP*) calls made, whether or not the edge
  *   found was kept; 0 for Delaunay and OpticsApprox
  * @param rounds rounds of the β-doubling loop; 1 for one-shot methods
  */
final case class MstStats(
    pairsMaterialized: Long,
    peakLivePairs: Long,
    bccpComputed: Long,
    rounds: Int,
)

final case class MstResult(edges: IndexedSeq[Edge], stats: MstStats)

/** The MemoGFK round loop (Algorithm 3), generic over the separation
  * criterion and the pair metric so it serves EMST (EuclidMetric +
  * GeometricSep), HDBSCAN*-GanTao (MutualReachMetric + GeometricSep) and
  * HDBSCAN*-MemoGFK (MutualReachMetric + MutualUnreachableSep).
  */
object MemoGfkEngine {

  def mst(ctx: Ctx, sep: Sep, metric: Metric, par: ParScheme): MstResult = {
    val n = ctx.tree.points.n
    val uf = new UnionFind(n)
    val out = new ArrayBuffer[Edge](n - 1)
    var beta = 2L
    var rhoLo = 0.0
    var rounds = 0
    var pairsMaterialized = 0L
    var bccpComputed = 0L
    var peak = 0L
    while (out.size < n - 1) {
      rounds += 1
      val snap = uf.snapshot()
      val comp = Wspd.nodeComponents(ctx.tree, snap, par)
      val rhoHi = Wspd.getRho(ctx, sep, metric, beta, comp, par)
      val round = Wspd.getPairs(ctx, sep, metric, rhoLo, rhoHi, comp, snap, par)
      pairsMaterialized += round.inWindow
      bccpComputed += round.bccps
      peak = math.max(peak, round.inWindow)
      Kruskal.runBatch(round.edges, uf, out, par)
      beta *= 2
      rhoLo = rhoHi
      // Safety net: with rhoHi = +inf every remaining pair was
      // considered, so the forest must now span.
      if (rhoHi.isPosInfinity && out.size < n - 1)
        throw new IllegalStateException(
          s"MemoGFK failed to span: ${out.size} of ${n - 1} edges")
    }
    MstResult(out.toIndexedSeq, MstStats(pairsMaterialized, peak, bccpComputed, rounds))
  }
}
