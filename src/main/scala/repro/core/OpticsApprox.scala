package repro.core

import repro.geometry.PointSet
import repro.kdtree.KdTree
import repro.mst.{Edge, Kruskal}
import repro.par.ParScheme
import repro.wspd.{Ctx, GeometricSep, Wspd}

/** OPTICS-GanTaoApprox (Appendix C): a parallelization of Gan and Tao's
  * approximate OPTICS. Builds a WSPD with separation constant s = sqrt(8/ρ),
  * picks a representative point per node (the paper's implementation
  * simplification: an arbitrary point rather than an approximate BCCP — we
  * use the first point of the node's range, which is deterministic), and
  * adds edges per the four cardinality cases (a)–(d) with weight
  * w(u,v) = max{cd(u), cd(v), d(u,v)/(1+ρ)}; the MST of the resulting
  * O(n·minPts²)-edge base graph approximates the HDBSCAN* (OPTICS) MST.
  */
object OpticsApprox {

  def mst(ps: PointSet, minPts: Int, rho: Double, par: ParScheme): HdbscanResult = {
    require(rho > 0, s"rho must be positive, got $rho")
    val s = math.sqrt(8.0 / rho)
    val tree = KdTree.build(ps, par = par)
    val cd = CoreDist.compute(tree, minPts, par)
    val ctx = Ctx.mutualReach(tree, cd, par)
    val pairs = Wspd.allPairs(ctx, GeometricSep(s), par)
    val edges = par.flatMapItems(pairs) { case (a, b) => pairEdges(ctx, a, b, minPts, rho) }
    val mst = Kruskal.mst(ps.n, edges)
    HdbscanResult(
      MstResult(mst, MstStats(pairs.size, pairs.size, bccpComputed = 0, rounds = 1)),
      cd)
  }

  private def pairEdges(c: Ctx, a: Int, b: Int, minPts: Int, rho: Double): Seq[Edge] = {
    val t = c.tree
    val cd = c.coreDist
    val ps = t.points
    def w(u: Int, v: Int): Edge =
      Edge(u, v, math.max(math.max(cd(u), cd(v)), ps.dist(u, v) / (1.0 + rho)))
    val repA = t.perm(t.lo(a))
    val repB = t.perm(t.lo(b))
    val bigA = t.size(a) >= minPts
    val bigB = t.size(b) >= minPts
    if (bigA && bigB) Seq(w(repA, repB))
    else if (bigA) t.pointsUnder(b).toSeq.map(v => w(repA, v))
    else if (bigB) t.pointsUnder(a).toSeq.map(u => w(u, repB))
    else for (u <- t.pointsUnder(a).toSeq; v <- t.pointsUnder(b).toSeq) yield w(u, v)
  }
}
