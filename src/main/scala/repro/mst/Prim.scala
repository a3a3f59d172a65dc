package repro.mst

import scala.collection.mutable

/** Prim's algorithm, used in two roles:
  *
  *  - [[denseMst]]: O(n²) Prim over an implicit complete graph given by a
  *    weight function — the brute-force correctness oracle for every MST
  *    variant (Euclidean or mutual-reachability weights);
  *  - [[treeOrder]]: Prim's traversal restricted to the edges of a spanning
  *    tree, which defines the reachability plot / ordered-dendrogram leaf
  *    order (§2.1, §4.1).
  */
object Prim {

  /** MST of the complete graph on `n` vertices under `w`. O(n²) time. */
  def denseMst(n: Int, w: (Int, Int) => Double): EdgeBatch = {
    require(n >= 1)
    val inTree = new Array[Boolean](n)
    val best = Array.fill(n)(Double.PositiveInfinity)
    val bestFrom = new Array[Int](n)
    val out = new EdgeBatch.Builder(n - 1)
    inTree(0) = true
    var i = 1
    while (i < n) { best(i) = w(0, i); bestFrom(i) = 0; i += 1 }
    var added = 1
    while (added < n) {
      var v = -1
      var bw = Double.PositiveInfinity
      var j = 0
      while (j < n) {
        if (!inTree(j) && best(j) < bw) { bw = best(j); v = j }
        j += 1
      }
      require(v >= 0, "disconnected input to Prim (infinite weight)")
      inTree(v) = true
      out.add(bestFrom(v), v, bw)
      added += 1
      j = 0
      while (j < n) {
        if (!inTree(j)) {
          val nw = w(v, j)
          if (nw < best(j)) { best(j) = nw; bestFrom(j) = v }
        }
        j += 1
      }
    }
    out.result()
  }

  /** Prim's traversal of a spanning tree from `s`.
    *
    * Returns the visit order and, aligned with it, the weight of the tree
    * edge used to attach each point (PositiveInfinity for `s` itself) —
    * i.e. exactly the reachability plot of §2.1. Equal-weight frontier
    * edges are broken by `Edge.ordering`'s endpoint rule so the order is
    * deterministic and matches the dendrogram's tie-breaking.
    */
  def treeOrder(n: Int, edges: IndexedSeq[Edge], s: Int): (Array[Int], Array[Double]) = {
    require(edges.length == n - 1, s"expected a spanning tree: ${edges.length} edges for $n points")
    val adj = Array.fill(n)(List.empty[(Int, Double)])
    edges.foreach { e =>
      adj(e.u) = (e.v, e.w) :: adj(e.u)
      adj(e.v) = (e.u, e.w) :: adj(e.v)
    }
    val order = new Array[Int](n)
    val reach = new Array[Double](n)
    val visited = new Array[Boolean](n)
    // Priority queue of (weight, from, to); ties by (min id, max id) as in
    // Edge.ordering. Reversed compare because PriorityQueue is a max-heap.
    implicit val ord: Ordering[(Double, Int, Int)] = new Ordering[(Double, Int, Int)] {
      override def compare(x: (Double, Int, Int), y: (Double, Int, Int)): Int = {
        val c1 = java.lang.Double.compare(y._1, x._1)
        if (c1 != 0) return c1
        val c2 = Integer.compare(math.min(y._2, y._3), math.min(x._2, x._3))
        if (c2 != 0) return c2
        Integer.compare(math.max(y._2, y._3), math.max(x._2, x._3))
      }
    }
    val pq = new mutable.PriorityQueue[(Double, Int, Int)]
    var count = 0
    def push(from: Int): Unit =
      adj(from).foreach { case (to, w) => if (!visited(to)) pq.enqueue((w, from, to)) }
    visited(s) = true
    order(0) = s
    reach(0) = Double.PositiveInfinity
    count = 1
    push(s)
    while (count < n) {
      require(pq.nonEmpty, "input edges do not form a connected tree")
      val (w, _, to) = pq.dequeue()
      if (!visited(to)) {
        visited(to) = true
        order(count) = to
        reach(count) = w
        count += 1
        push(to)
      }
    }
    (order, reach)
  }

  /** Total weight of an edge sequence (for MST-weight comparisons). */
  def weight(edges: Iterable[Edge]): Double = edges.iterator.map(_.w).sum
}
