package repro.mst

import repro.par.SeqScheme

/** A weighted undirected edge between point ids `u` and `v`. */
final case class Edge(u: Int, v: Int, w: Double)

object Edge {

  /** Deterministic total order: by weight, ties broken by endpoint ids so
    * every algorithm (and the dendrogram) processes equal-weight edges in
    * the same order.
    */
  implicit val ordering: Ordering[Edge] =
    Ordering.by((e: Edge) => (e.w, math.min(e.u, e.v), math.max(e.u, e.v)))

  /** Edge ids in the order of the stable `edges.sorted(ordering)`, full
    * ties in input order: [[EdgeBatch.sortedIds]] on a columnar copy.
    */
  def sortedIds(edges: IndexedSeq[Edge]): Array[Int] =
    EdgeBatch.of(edges).sortedIds(SeqScheme)
}
