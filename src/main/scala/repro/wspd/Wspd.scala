package repro.wspd

import scala.collection.mutable.ArrayBuffer

import repro.kdtree.KdTree
import repro.mst.{Edge, EdgeBatch}
import repro.par.{ParScheme, SeqScheme}

/** Shared read-only context for WSPD traversals: the kd-tree plus, for
  * HDBSCAN*, per-point core distances and per-node core-distance stats.
  * One instance per algorithm run, read in place by every work item.
  */
final case class Ctx(
    tree: KdTree,
    coreDist: Array[Double],
    cdMin: Array[Double],
    cdMax: Array[Double],
)

object Ctx {
  /** Context for plain EMST (no core distances). */
  def euclidean(tree: KdTree): Ctx = Ctx(tree, null, null, null)

  /** Context for HDBSCAN* with the given per-point core distances; the
    * per-node stats are computed under `par`.
    */
  def mutualReach(tree: KdTree, cd: Array[Double], par: ParScheme = SeqScheme): Ctx = {
    val (mn, mx) = KdTree.coreDistStats(tree, cd, par)
    Ctx(tree, cd, mn, mx)
  }
}

/** Well-separation criterion (stateless, reads everything from [[Ctx]]).
  * `cd` is `c.tree.centerDist(a, b)`, computed once per visited pair.
  */
sealed trait Sep {
  def wellSeparated(c: Ctx, a: Int, b: Int, cd: Double): Boolean
}

/** Classic Callahan–Kosaraju separation with constant `s`: the gap between
  * the bounding spheres is at least `s` times the larger radius. With the
  * paper's s = 2 this is exactly d(A,B) >= max(A_diam, B_diam).
  */
final case class GeometricSep(s: Double = 2.0) extends Sep {
  override def wellSeparated(c: Ctx, a: Int, b: Int, cd: Double): Boolean = {
    val t = c.tree
    t.sphereDist(a, b, cd) >= s * math.max(t.radius(a), t.radius(b))
  }
}

/** The paper's new HDBSCAN* notion (§3.2.2): well-separated iff
  * geometrically-separated OR mutually-unreachable. Termination happens no
  * later than under [[GeometricSep]], giving fewer pairs.
  */
case object MutualUnreachableSep extends Sep {
  private val geom = GeometricSep(2.0)

  /** max{d(A,B), cd_min(A), cd_min(B)} >= max{A_diam, B_diam, cd_max(A), cd_max(B)} */
  def mutuallyUnreachable(c: Ctx, a: Int, b: Int, cd: Double): Boolean = {
    val t = c.tree
    val lhs = math.max(t.sphereDist(a, b, cd), math.max(c.cdMin(a), c.cdMin(b)))
    val rhs = math.max(math.max(t.diameter(a), t.diameter(b)),
                       math.max(c.cdMax(a), c.cdMax(b)))
    lhs >= rhs
  }

  override def wellSeparated(c: Ctx, a: Int, b: Int, cd: Double): Boolean =
    geom.wellSeparated(c, a, b, cd) || mutuallyUnreachable(c, a, b, cd)
}

/** Distance notion for pair edges: Euclidean BCCP or mutual-reachability
  * BCCP* — with the lower/upper bounds MemoGFK's pruned traversals need
  * (Figure 3: lb == the paper's d(A,B) analogue, ub == d_max(A,B)).
  * The pruning invariant is that lb/ub bracket the weight of EVERY cross
  * pair of (A,B) — hence of every descendant pair's BCCP. `cd` is
  * `c.tree.centerDist(a, b)`.
  */
sealed trait Metric {
  def lb(c: Ctx, a: Int, b: Int, cd: Double): Double
  def ub(c: Ctx, a: Int, b: Int, cd: Double): Double
  /** Exact bichromatic closest pair of (a, b) under this metric. */
  def bccp(c: Ctx, a: Int, b: Int): Edge
}

/** Plain Euclidean distance (EMST). */
case object EuclidMetric extends Metric {
  override def lb(c: Ctx, a: Int, b: Int, cd: Double): Double = c.tree.sphereDist(a, b, cd)
  override def ub(c: Ctx, a: Int, b: Int, cd: Double): Double = c.tree.sphereMaxDist(a, b, cd)

  override def bccp(c: Ctx, a: Int, b: Int): Edge = {
    val t = c.tree
    val ps = t.points
    var bi = -1; var bj = -1
    var best2 = Double.PositiveInfinity
    var i = t.lo(a)
    while (i < t.hi(a)) {
      val pi = t.perm(i)
      var j = t.lo(b)
      while (j < t.hi(b)) {
        val pj = t.perm(j)
        val d2 = ps.dist2(pi, pj)
        if (d2 < best2) { best2 = d2; bi = pi; bj = pj }
        j += 1
      }
      i += 1
    }
    Edge(bi, bj, math.sqrt(best2))
  }
}

/** Mutual reachability distance d_m(p,q) = max{cd(p), cd(q), d(p,q)} —
  * BCCP* of the paper.
  */
case object MutualReachMetric extends Metric {
  override def lb(c: Ctx, a: Int, b: Int, cd: Double): Double =
    math.max(c.tree.sphereDist(a, b, cd), math.max(c.cdMin(a), c.cdMin(b)))

  override def ub(c: Ctx, a: Int, b: Int, cd: Double): Double =
    math.max(c.tree.sphereMaxDist(a, b, cd), math.max(c.cdMax(a), c.cdMax(b)))

  override def bccp(c: Ctx, a: Int, b: Int): Edge = {
    val t = c.tree
    val ps = t.points
    val cd = c.coreDist
    var bi = -1; var bj = -1
    var best = Double.PositiveInfinity
    var i = t.lo(a)
    while (i < t.hi(a)) {
      val pi = t.perm(i)
      val cdi = cd(pi)
      if (cdi < best) { // points with cd >= current best cannot improve
        var j = t.lo(b)
        while (j < t.hi(b)) {
          val pj = t.perm(j)
          val w = math.max(math.max(cdi, cd(pj)), ps.dist(pi, pj))
          if (w < best) { best = w; bi = pi; bj = pj }
          j += 1
        }
      }
      i += 1
    }
    // `best` starts at +inf and core distances are finite, so the first row
    // is always scanned and sets `bi`/`bj`.
    Edge(bi, bj, best)
  }
}

/** WSPD construction and the MemoGFK pruned traversals (Algorithms 1 & 3).
  *
  * Each traversal is one [[findPairsRec]] call per work item, with that
  * traversal's emit and prune logic written once. The driver only cuts the
  * top of the Algorithm-1 recursion into independent FindPair tasks
  * ([[frontier]]) and combines the tasks' results by a min or a
  * concatenation; no traversal work runs on the driver. Under `SeqScheme`
  * the one task is the whole tree.
  */
object Wspd {

  /** Safety slack for comparing a sphere-based bound with a ρ window edge.
    * The bounds can over/undershoot the exact BCCP by a few ulps (e.g. in
    * 1D the interval gap equals a point distance but is computed via
    * centers and radii), so a bound may only decide when it is comfortably
    * past the edge: MemoGFK prunes only when lb/ub clear the window by the
    * slack, and GFK's batch boundary sits the slack below ρ_hi. Exact edge
    * weights are still compared without slack, so the slack costs a little
    * pruning (or defers a few edges to the next GFK round). It keeps the
    * result exact only while the bounds' rounding error, which grows with
    * the coordinates' magnitude and not with ρ, stays below it: at
    * coordinate offsets of 1e13–1e15 with unit spread a kd-tree sphere can
    * miss its box by more than the slack, and MemoGFK returns a heavier
    * tree (ROADMAP item 1).
    */
  @inline def slack(x: Double): Double =
    if (x.isInfinity) 0.0 else 1e-9 * (1.0 + math.abs(x))

  /** True iff `lbVal` is comfortably at or above `rhoHi` (safe to prune). */
  @inline def lbPrunes(lbVal: Double, rhoHi: Double): Boolean =
    lbVal >= rhoHi + slack(rhoHi)

  /** True iff `ubVal` is comfortably below `rhoLo` (safe to prune). */
  @inline def ubPrunes(ubVal: Double, rhoLo: Double): Boolean =
    ubVal < rhoLo - slack(rhoLo)

  /** A pending FindPair(a, b) call; `a == b` encodes a WSPD(a) split call. */
  final case class Task(a: Int, b: Int)

  /** Cuts the Algorithm-1 recursion breadth-first into at least `target`
    * independent tasks (fewer if the recursion runs out). It prunes and
    * emits nothing: a well-separated pair stays a task, and a leaf split,
    * which finds no pair, is dropped.
    */
  private def frontier(c: Ctx, sep: Sep, target: Int): IndexedSeq[Task] = {
    val t = c.tree
    val open = scala.collection.mutable.Queue(Task(t.root, t.root))
    val done = ArrayBuffer.empty[Task]
    while (open.nonEmpty && open.size + done.size < target) {
      val task @ Task(a, b) = open.dequeue()
      if (a == b) {
        if (!t.isLeaf(a))
          open.enqueue(Task(t.left(a), t.left(a)), Task(t.right(a), t.right(a)),
            Task(t.left(a), t.right(a)))
      } else if (sep.wellSeparated(c, a, b, t.centerDist(a, b))) done += task
      else {
        // Split the node with the larger bounding sphere (Algorithm 1).
        val (p, q) = if (t.radius(a) >= t.radius(b)) (a, b) else (b, a)
        open.enqueue(Task(t.left(p), q), Task(t.right(p), q))
      }
    }
    (done ++ open).toIndexedSeq
  }

  /** A test or action on a visited pair `(a, b)` whose center distance
    * `t.centerDist(a, b)` is `cd`. Primitive SAM types, so the per-visit
    * calls box nothing.
    */
  private trait PairTest { def apply(a: Int, b: Int, cd: Double): Boolean }
  private trait PairAction { def apply(a: Int, b: Int, cd: Double): Unit }

  /** The FindPair recursion (Algorithm 1) from one task, shared by every
    * traversal; `pruneNode`/`prunePair` are MemoGFK's cuts (Algorithm 3).
    * Each visited pair's center distance is computed once and passed to the
    * prune, separation and emit tests.
    */
  private def findPairsRec(
      c: Ctx,
      sep: Sep,
      task: Task,
      emit: PairAction,
      pruneNode: Int => Boolean,
      prunePair: PairTest,
  ): Unit = {
    val t = c.tree
    def pair(a: Int, b: Int): Unit = {
      val cd = t.centerDist(a, b)
      if (!prunePair(a, b, cd)) {
        if (sep.wellSeparated(c, a, b, cd)) emit(a, b, cd)
        else {
          // Split the node with the larger bounding sphere (Algorithm 1).
          val splitA = t.radius(a) >= t.radius(b)
          val p = if (splitA) a else b
          val q = if (splitA) b else a
          pair(t.left(p), q)
          pair(t.right(p), q)
        }
      }
    }
    def split(a: Int): Unit =
      if (!t.isLeaf(a) && !pruneNode(a)) {
        split(t.left(a))
        split(t.right(a))
        pair(t.left(a), t.right(a))
      }
    if (task.a == task.b) split(task.a) else pair(task.a, task.b)
  }

  /** Full WSPD of the tree (Algorithm 1): every well-separated pair under
    * `sep`, gathered from the fan-out of [[frontier]] tasks under `par`.
    */
  def allPairs(c: Ctx, sep: Sep, par: ParScheme): IndexedSeq[(Int, Int)] =
    par.flatMapItems(frontier(c, sep, par.targetTasks)) { task =>
      val buf = ArrayBuffer.empty[(Int, Int)]
      findPairsRec(c, sep, task, (a, b, _) => buf += ((a, b)),
        _ => false, (_, _, _) => false)
      buf.toSeq
    }

  /** Per-node union-find purity: `nodeComp(a)` is the component root if all
    * points under `a` share one component, else -1. Recomputed each GFK
    * round from a union-find snapshot, as a [[KdTree.bottomUp]] pass under
    * `par`; drives the "already connected" pruning of Algorithm 3.
    */
  def nodeComponents(t: KdTree, snap: Array[Int], par: ParScheme = SeqScheme): Array[Int] = {
    val out = new Array[Int](t.nNodes)
    t.bottomUp(par) { a =>
      if (t.isLeaf(a)) {
        var comp = snap(t.perm(t.lo(a)))
        var i = t.lo(a) + 1
        while (i < t.hi(a) && comp >= 0) {
          if (snap(t.perm(i)) != comp) comp = -1
          i += 1
        }
        out(a) = comp
      } else {
        val l = out(t.left(a)); val r = out(t.right(a))
        out(a) = if (l >= 0 && l == r) l else -1
      }
    }
    out
  }

  /** MemoGFK's GetRho (Algorithm 3, line 4): a lower bound on the weight of
    * every edge that a not-yet-connected well-separated pair of cardinality
    * greater than `beta` can produce. Infinity if no such pair remains.
    * The sphere `lb` is not monotone under kd-tree refinement, so the value
    * (always the `lb` of one such pair) depends on the visit order, hence
    * on `par.targetTasks`; every value it can take is a valid bound.
    * `comp` is [[nodeComponents]] of the round's union-find snapshot.
    */
  def getRho(
      c: Ctx,
      sep: Sep,
      metric: Metric,
      beta: Long,
      comp: Array[Int],
      par: ParScheme,
  ): Double =
    par.mapItems(frontier(c, sep, par.targetTasks)) { task =>
      val t = c.tree
      var rho = Double.PositiveInfinity
      findPairsRec(c, sep, task,
        emit = (a, b, cd) => {
          if (t.size(a).toLong + t.size(b) > beta) {
            val l = metric.lb(c, a, b, cd)
            if (l < rho) rho = l
          }
        },
        pruneNode = a => comp(a) >= 0,
        prunePair = (a, b, cd) => {
          (comp(a) >= 0 && comp(a) == comp(b)) ||
          t.size(a).toLong + t.size(b) <= beta ||
          metric.lb(c, a, b, cd) >= rho
        })
      rho
    }.foldLeft(Double.PositiveInfinity)(math.min)

  /** Result of one GetPairs round: the in-window edges that join two
    * components of the round's snapshot, the number of in-window edges
    * before that filter, and the number of BCCPs computed to find them (one
    * per emitted pair, in window or not).
    */
  final case class PairsRound(edges: EdgeBatch, inWindow: Long, bccps: Long)

  /** MemoGFK's GetPairs (Algorithm 3, line 5): materializes the BCCP edges
    * of well-separated, not-yet-connected pairs whose BCCP weight falls in
    * `[rhoLo, rhoHi)`, pruning subtrees whose bounds put them out of range
    * (Figure 3b). An in-window edge whose endpoints already share a root in
    * `snap`, the round's union-find snapshot, is counted and dropped, as
    * GeoFilterKruskal's Filter step (Algorithm 2) drops it: Kruskal would
    * reject it. Each task appends its kept edges to primitive columns, and
    * the round concatenates them into one batch, in task order. `comp` is
    * as in [[getRho]].
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
    val rounds = par.mapItems(frontier(c, sep, par.targetTasks)) { task =>
      val out = new EdgeBatch.Builder
      var inWindow = 0L
      var bccps = 0L
      findPairsRec(c, sep, task,
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
        prunePair = (a, b, cd) => {
          (comp(a) >= 0 && comp(a) == comp(b)) ||
          lbPrunes(metric.lb(c, a, b, cd), rhoHi) ||
          ubPrunes(metric.ub(c, a, b, cd), rhoLo)
        })
      (out.result(), inWindow, bccps)
    }
    PairsRound(EdgeBatch.concat(rounds.map(_._1)), rounds.map(_._2).sum, rounds.map(_._3).sum)
  }
}
