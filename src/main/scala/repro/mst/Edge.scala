package repro.mst

/** A weighted undirected edge between point ids `u` and `v`. */
final case class Edge(u: Int, v: Int, w: Double)

object Edge {

  /** Deterministic total order: by weight, ties broken by endpoint ids so
    * every algorithm (and the dendrogram) processes equal-weight edges in
    * the same order.
    */
  implicit val ordering: Ordering[Edge] =
    Ordering.by((e: Edge) => (e.w, math.min(e.u, e.v), math.max(e.u, e.v)))
}
