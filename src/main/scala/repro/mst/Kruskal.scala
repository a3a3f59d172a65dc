package repro.mst

import scala.collection.mutable.ArrayBuffer

import repro.par.{ParScheme, SeqScheme}

/** Kruskal's MST algorithm, batched as the paper's GFK subroutine uses it
  * (Algorithm 2, line 8): each call processes one batch of edges whose
  * weights are no less than those of previous batches, against a union-find
  * shared across calls, appending accepted edges to `out`.
  */
object Kruskal {

  /** Processes one batch. Sorts the batch's edge ids by `Edge.ordering`
    * with [[EdgeBatch.sortedIds]] under `par`, then scans the columns in
    * that order on the calling thread, joining components and appending
    * tree edges to `out` as the batch orients them.
    *
    * @throws IllegalArgumentException if the batch's lightest edge is
    *   lighter than the heaviest edge already in `out`: processing it
    *   would break Kruskal's order
    */
  def runBatch(batch: EdgeBatch, uf: UnionFind, out: ArrayBuffer[Edge], par: ParScheme): Unit = {
    val ids = batch.sortedIds(par)
    if (ids.nonEmpty && out.nonEmpty && batch.w(ids(0)) < out.last.w)
      throw new IllegalArgumentException(
        s"batch out of order: its lightest edge weighs ${batch.w(ids(0))}, " +
        s"below the ${out.last.w} of the heaviest accepted edge")
    var i = 0
    while (i < ids.length) {
      val id = ids(i)
      if (uf.union(batch.u(id), batch.v(id))) out += batch.edge(id)
      i += 1
    }
  }

  /** Plain one-shot Kruskal over `n` vertices; returns the spanning forest. */
  def mst(n: Int, edges: IndexedSeq[Edge]): IndexedSeq[Edge] = {
    val uf = new UnionFind(n)
    val out = new ArrayBuffer[Edge](n - 1)
    runBatch(EdgeBatch.of(edges), uf, out, SeqScheme)
    out.toIndexedSeq
  }
}
