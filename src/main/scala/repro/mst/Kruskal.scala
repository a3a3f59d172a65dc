package repro.mst

import scala.collection.mutable.ArrayBuffer

/** Kruskal's MST algorithm, batched as the paper's GFK subroutine uses it
  * (Algorithm 2, line 8): each call processes one batch of edges whose
  * weights are no less than those of previous batches, against a union-find
  * shared across calls, appending accepted edges to `out`.
  */
object Kruskal {

  /** Processes one batch. Sorts the batch's edge ids by `Edge.ordering`
    * with the primitive-key [[Edge.sortedIds]], then scans the edges in that
    * order, joining components and appending tree edges to `out`.
    */
  def runBatch(batch: IndexedSeq[Edge], uf: UnionFind, out: ArrayBuffer[Edge]): Unit = {
    val ids = Edge.sortedIds(batch)
    var i = 0
    while (i < ids.length) {
      val e = batch(ids(i))
      if (uf.union(e.u, e.v)) out += e
      i += 1
    }
  }

  /** Plain one-shot Kruskal over `n` vertices; returns the spanning forest. */
  def mst(n: Int, edges: IndexedSeq[Edge]): IndexedSeq[Edge] = {
    val uf = new UnionFind(n)
    val out = new ArrayBuffer[Edge](n - 1)
    runBatch(edges, uf, out)
    out.toIndexedSeq
  }
}
