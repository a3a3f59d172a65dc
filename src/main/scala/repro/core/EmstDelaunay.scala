package repro.core

import repro.delaunay.Delaunay
import repro.geometry.PointSet
import repro.mst.{EdgeBatch, Kruskal}
import repro.par.ParScheme

/** EMST-Delaunay (Appendix A.1, 2D only): the EMST is a subgraph of the
  * Delaunay triangulation (Shamos–Hoey), so triangulate and run Kruskal on
  * the O(n) Delaunay edges, which the triangulation weighs as it lists
  * them. Kruskal sorts under `par`; the triangulation itself is the
  * sequential Bowyer–Watson substrate, inserting in kd-tree order
  * (DESIGN.md notes this substitution for the paper's parallel PBBS
  * triangulator). EXPERIMENTS.md compares its time with EMST-MemoGFK's.
  */
object EmstDelaunay {

  def mst(ps: PointSet, par: ParScheme): MstResult = {
    require(ps.dim == 2, "EMST-Delaunay applies to 2D data sets only")
    val t = Delaunay.triangulate(ps)
    // Exact duplicates re-attach at distance zero.
    val dupEdges = new EdgeBatch.Builder
    for (i <- 0 until ps.n if t.representative(i) != i) dupEdges.add(i, t.representative(i), 0.0)
    val mst = Kruskal.mst(ps.n, EdgeBatch.concat(Seq(t.edges, dupEdges.result())), par)
    MstResult(mst, MstStats(t.edges.size, t.edges.size, 0, rounds = 1))
  }
}
