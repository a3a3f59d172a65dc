package repro.mst

import repro.par.ParScheme

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
  def runBatch(batch: EdgeBatch, uf: UnionFind, out: EdgeBatch.Builder, par: ParScheme): Unit = {
    val ids = batch.sortedIds(par)
    if (ids.nonEmpty && out.size > 0 && batch.w(ids(0)) < out.lastWeight)
      throw new IllegalArgumentException(
        s"batch out of order: its lightest edge weighs ${batch.w(ids(0))}, " +
        s"below the ${out.lastWeight} of the heaviest accepted edge")
    var i = 0
    while (i < ids.length) {
      val id = ids(i)
      if (uf.union(batch.u(id), batch.v(id))) out.add(batch.u(id), batch.v(id), batch.w(id))
      i += 1
    }
  }

  /** Plain one-shot Kruskal over `n` vertices, sorting under `par`; returns the spanning forest. */
  def mst(n: Int, edges: IndexedSeq[Edge], par: ParScheme): EdgeBatch = {
    val out = new EdgeBatch.Builder(n - 1)
    runBatch(EdgeBatch.of(edges), new UnionFind(n), out, par)
    out.result()
  }
}
