package repro.wspd

import repro.mst.EdgeBatch
import repro.par.ParScheme
import repro.wspd.Wspd.{PairsRound, Task, frontier, lbPrunes, ubPrunes}

/** The reference for [[Wspd.round]], as dense Prim is the MST reference:
  * the paper's two pruned traversals per MemoGFK round, GetRho and then
  * GetPairs, each a full FindPair recursion over the same [[frontier]]
  * tasks with its own emit and prune logic.
  */
object TwoPassRound {

  /** A test or action on a visited pair `(a, b)` whose path bounds are
    * `pathLb` (the largest `lb` from its split call down to it) and
    * `pathUb` (the smallest `ub`). Primitive SAM types, so the per-visit
    * calls box nothing.
    */
  private trait PairTest { def apply(a: Int, b: Int, pathLb: Double, pathUb: Double): Boolean }
  private trait PairAction { def apply(a: Int, b: Int, pathLb: Double): Unit }

  /** The FindPair recursion (Algorithm 1) from one task, shared by every
    * traversal; `pruneNode`/`prunePair` are MemoGFK's cuts (Algorithm 3).
    * Each visited pair's center distance is computed once, and its path
    * bounds start from the task's.
    */
  private def findPairsRec(
      c: Ctx,
      sep: Sep,
      metric: Metric,
      task: Task,
      emit: PairAction,
      pruneNode: Int => Boolean,
      prunePair: PairTest,
  ): Unit = {
    val t = c.tree
    def pair(a: Int, b: Int, lbAbove: Double, ubAbove: Double): Unit = {
      val cd = t.centerDist(a, b)
      val pathLb = math.max(lbAbove, metric.lb(c, a, b, cd))
      val pathUb = math.min(ubAbove, metric.ub(c, a, b, cd))
      if (!prunePair(a, b, pathLb, pathUb)) {
        if (sep.wellSeparated(c, a, b, cd)) emit(a, b, pathLb)
        else {
          // Split the node with the larger bounding sphere (Algorithm 1).
          val splitA = t.radius(a) >= t.radius(b)
          val p = if (splitA) a else b
          val q = if (splitA) b else a
          pair(t.left(p), q, pathLb, pathUb)
          pair(t.right(p), q, pathLb, pathUb)
        }
      }
    }
    def split(a: Int): Unit =
      if (!t.isLeaf(a) && !pruneNode(a)) {
        split(t.left(a))
        split(t.right(a))
        pair(t.left(a), t.right(a), Double.NegativeInfinity, Double.PositiveInfinity)
      }
    if (task.a == task.b) split(task.a) else pair(task.a, task.b, task.lbAbove, task.ubAbove)
  }

  /** MemoGFK's GetRho (Algorithm 3, line 4): a lower bound on the weight of
    * every edge that a not-yet-connected well-separated pair of cardinality
    * greater than `beta` can produce, the smallest path `lb` of such a pair.
    * Infinity if no such pair remains.
    */
  def getRho(
      c: Ctx,
      sep: Sep,
      metric: Metric,
      beta: Long,
      comp: Array[Int],
      par: ParScheme,
  ): Double =
    par.mapItems(frontier(c, sep, metric, par.targetTasks)) { task =>
      val t = c.tree
      var rho = Double.PositiveInfinity
      findPairsRec(c, sep, metric, task,
        emit = (a, b, pathLb) => {
          if (t.size(a).toLong + t.size(b) > beta && pathLb < rho) rho = pathLb
        },
        pruneNode = a => comp(a) >= 0,
        prunePair = (a, b, pathLb, _) => {
          (comp(a) >= 0 && comp(a) == comp(b)) ||
          t.size(a).toLong + t.size(b) <= beta ||
          pathLb >= rho
        })
      rho
    }.foldLeft(Double.PositiveInfinity)(math.min)

  /** MemoGFK's GetPairs (Algorithm 3, line 5): the BCCP edges of
    * well-separated, not-yet-connected pairs whose BCCP weight falls in
    * `[rhoLo, rhoHi)`, dropping those whose endpoints share a root in
    * `snap`, with the in-window count and the BCCPs computed.
    */
  def getPairs(
      c: Ctx,
      sep: Sep,
      metric: Metric,
      rhoLo: Double,
      rhoHi: Double,
      comp: Array[Int],
      snap: Array[Int],
      par: ParScheme,
  ): PairsRound = {
    val rounds = par.mapItems(frontier(c, sep, metric, par.targetTasks)) { task =>
      val out = new EdgeBatch.Builder
      var inWindow = 0L
      var bccps = 0L
      findPairsRec(c, sep, metric, task,
        emit = (a, b, _) => {
          // Bounds may not exclude the pair, but the exact BCCP decides.
          val e = metric.bccp(c, a, b)
          bccps += 1
          if (e.w >= rhoLo && e.w < rhoHi) {
            inWindow += 1
            if (snap(e.u) != snap(e.v)) out.add(e.u, e.v, e.w)
          }
        },
        pruneNode = a => comp(a) >= 0,
        prunePair = (a, b, pathLb, pathUb) => {
          (comp(a) >= 0 && comp(a) == comp(b)) ||
          lbPrunes(pathLb, rhoHi) ||
          ubPrunes(pathUb, rhoLo)
        })
      (out.result(), inWindow, bccps)
    }
    PairsRound(rhoHi, EdgeBatch.concat(rounds.map(_._1)), rounds.map(_._2).sum,
      rounds.map(_._3).sum)
  }
  /** GetRho, then GetPairs over `[rhoLo, ρ_hi)`: what [[Wspd.round]] returns. */
  def round(
      c: Ctx,
      sep: Sep,
      metric: Metric,
      beta: Long,
      rhoLo: Double,
      comp: Array[Int],
      snap: Array[Int],
      par: ParScheme,
  ): PairsRound =
    getPairs(c, sep, metric, rhoLo, getRho(c, sep, metric, beta, comp, par), comp, snap, par)
}
