package repro.core

import repro.delaunay.Delaunay
import repro.geometry.PointSet
import repro.mst.{Edge, Kruskal}
import repro.par.ParScheme

/** EMST-Delaunay (Appendix A.1, 2D only): the EMST is a subgraph of the
  * Delaunay triangulation (Shamos–Hoey), so triangulate and run Kruskal on
  * the O(n) Delaunay edges. Edge weights are computed in parallel under
  * `par`; the triangulation itself is the sequential Bowyer–Watson
  * substrate, inserting in kd-tree order (DESIGN.md notes this
  * substitution for the paper's parallel PBBS triangulator). EXPERIMENTS.md
  * compares its time with EMST-MemoGFK's.
  */
object EmstDelaunay {

  def mst(ps: PointSet, par: ParScheme): MstResult = {
    require(ps.dim == 2, "EMST-Delaunay applies to 2D data sets only")
    val t = Delaunay.triangulate(ps)
    val weighted = par.mapItems(t.edges) { case (u, v) => Edge(u, v, ps.dist(u, v)) }
    // Exact duplicates re-attach at distance zero.
    val rep = t.representative
    val dupEdges = (0 until ps.n).collect { case i if rep(i) != i => Edge(i, rep(i), 0.0) }
    val mst = Kruskal.mst(ps.n, weighted ++ dupEdges)
    MstResult(mst, MstStats(t.edges.size, t.edges.size, 0, rounds = 1))
  }
}
