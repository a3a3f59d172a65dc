package repro.core

import repro.geometry.PointSet
import repro.kdtree.KdTree
import repro.mst.{Edge, EdgeBatch, Kruskal, UnionFind}
import repro.par.ParScheme
import repro.wspd.{Ctx, EuclidMetric, GeometricSep, Wspd}

/** EMST-Naive (§5): materialize the full WSPD, compute the BCCP of every
  * pair, and run Kruskal over all the resulting edges.
  */
object EmstNaive {

  /** @param pairBudget abort (mirroring the paper's OOM "-" cells) if the
    *                   materialized WSPD exceeds this many pairs
    */
  def mst(ps: PointSet, par: ParScheme, pairBudget: Long = Long.MaxValue): MstResult = {
    val tree = KdTree.build(ps, par = par)
    val ctx = Ctx.euclidean(tree)
    val pairs = Wspd.allPairs(ctx, GeometricSep(2.0), par)
    if (pairs.size > pairBudget)
      throw new PairBudgetExceeded(pairs.size, pairBudget)
    val edges = par.mapItems(pairs) { case (a, b) => EuclidMetric.bccp(ctx, a, b) }
    val mst = Kruskal.mst(ps.n, edges, par)
    MstResult(mst, MstStats(pairs.size, pairs.size, pairs.size, rounds = 1))
  }
}

/** Signals that a run exceeded its materialized-pair budget — the scaled
  * analogue of the paper's out-of-memory "-" table cells.
  */
final class PairBudgetExceeded(val pairs: Long, val budget: Long)
    extends RuntimeException(s"materialized $pairs WSPD pairs > budget $budget")

/** EMST-GFK: parallel GeoFilterKruskal (Algorithm 2). Materializes the full
  * WSPD once, then proceeds in rounds with doubling β, computing BCCPs only
  * for small-cardinality pairs not yet filtered out, caching them.
  */
object EmstGfk {

  // One WSPD pair carried across rounds with its cached BCCP (null until computed).
  private final class PairState(val a: Int, val b: Int, var edge: Edge)

  def mst(ps: PointSet, par: ParScheme, pairBudget: Long = Long.MaxValue): MstResult = {
    val tree = KdTree.build(ps, par = par)
    val ctx = Ctx.euclidean(tree)
    val wspd = Wspd.allPairs(ctx, GeometricSep(2.0), par)
    if (wspd.size > pairBudget)
      throw new PairBudgetExceeded(wspd.size, pairBudget)
    var s: IndexedSeq[PairState] = wspd.map { case (a, b) => new PairState(a, b, null) }
    val uf = new UnionFind(ps.n)
    val out = new EdgeBatch.Builder(ps.n - 1)
    var beta = 2L
    var rounds = 0
    var bccpCount = 0L
    def card(p: PairState): Long = tree.size(p.a).toLong + tree.size(p.b)
    while (out.size < ps.n - 1) {
      rounds += 1
      val (sl, su) = s.partition(card(_) <= beta)
      // Lower bound on every edge a large-cardinality pair can produce.
      var rhoHi = Double.PositiveInfinity
      su.foreach { p =>
        val l = EuclidMetric.lb(ctx, p.a, p.b, tree.centerDist(p.a, p.b))
        if (l < rhoHi) rhoHi = l
      }
      // Compute the missing BCCPs of the small pairs in parallel.
      val missing = sl.filter(_.edge == null)
      bccpCount += missing.size
      val computed = par.mapItems(missing.map(p => (p.a, p.b))) { case (a, b) =>
        EuclidMetric.bccp(ctx, a, b)
      }
      var i = 0
      while (i < missing.size) { missing(i).edge = computed(i); i += 1 }
      // Conservative boundary: a large pair's eventual BCCP can undershoot
      // its lower bound (hence rhoHi) by ulps, so cut `Wspd.slack` below it
      // to preserve the non-decreasing batch order Kruskal relies on.
      val cut = rhoHi - Wspd.slack(rhoHi)
      val (sl1, sl2) = sl.partition(_.edge.w <= cut)
      Kruskal.runBatch(EdgeBatch.of(sl1.map(_.edge)), uf, out, par)
      // Filter: discard pairs already connected in the union-find.
      val snap = uf.snapshot()
      val comp = Wspd.nodeComponents(tree, snap, par)
      s = (sl2 ++ su).filter { p =>
        if (p.edge != null) snap(p.edge.u) != snap(p.edge.v)
        else !(comp(p.a) >= 0 && comp(p.a) == comp(p.b))
      }
      beta *= 2
      if (s.isEmpty && out.size < ps.n - 1)
        throw new IllegalStateException(
          s"GFK exhausted pairs with ${out.size} of ${ps.n - 1} edges")
    }
    MstResult(out.result(), MstStats(wspd.size, wspd.size, bccpCount, rounds))
  }
}

/** EMST-MemoGFK (Algorithm 3): the paper's fastest method. Never
  * materializes the WSPD — each round re-traverses the kd-tree once
  * (`Wspd.round`, GetRho and GetPairs in one pruned pass) and only the
  * in-range pairs become edges.
  */
object EmstMemoGfk {
  def mst(ps: PointSet, par: ParScheme): MstResult = {
    val tree = KdTree.build(ps, par = par)
    MemoGfkEngine.mst(Ctx.euclidean(tree), GeometricSep(2.0), EuclidMetric, par)
  }
}
