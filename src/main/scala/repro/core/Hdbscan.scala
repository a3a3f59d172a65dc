package repro.core

import repro.geometry.PointSet
import repro.kdtree.KdTree
import repro.par.ParScheme
import repro.wspd.{Ctx, GeometricSep, MutualReachMetric, MutualUnreachableSep, Sep}

/** Which HDBSCAN* MST variant to run (§3.2):
  *
  *  - [[GanTao]]: our parallelization of the exact Gan–Tao-style baseline —
  *    classic geometric well-separation, one exact BCCP* edge per pair,
  *    computed with the MemoGFK engine (§3.2.1 + §3.1.3);
  *  - [[MemoGfk]]: the paper's improved algorithm — the new well-separation
  *    definition (geometrically-separated OR mutually-unreachable), which
  *    terminates the WSPD recursion earlier and yields fewer pairs (§3.2.2).
  */
sealed trait HdbscanVariant { def sep: Sep }
case object GanTao extends HdbscanVariant { val sep: Sep = GeometricSep(2.0) }
case object MemoGfk extends HdbscanVariant { val sep: Sep = MutualUnreachableSep }

/** Result of the HDBSCAN* MST phase: the MST of the mutual reachability
  * graph, per-point core distances, and engine statistics.
  */
final case class HdbscanResult(
    mst: MstResult,
    coreDist: Array[Double],
)

object Hdbscan {

  /** Computes the MST of the mutual reachability graph G_MR. */
  def mst(ps: PointSet, minPts: Int, variant: HdbscanVariant, par: ParScheme): HdbscanResult = {
    val tree = KdTree.build(ps, par = par)
    val cd = CoreDist.compute(tree, minPts, par)
    val ctx = Ctx.mutualReach(tree, cd, par)
    val res = MemoGfkEngine.mst(ctx, variant.sep, MutualReachMetric, par)
    HdbscanResult(res, cd)
  }
}
