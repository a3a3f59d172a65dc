package repro.core

import scala.collection.mutable

import repro.mst.{Edge, EdgeBatch, UnionFind}
import repro.par.{ParScheme, SeqScheme}

/** An ordered dendrogram over `n` points (§4.1).
  *
  * Nodes `0 until n` are the point leaves; node `n + i` is the internal
  * node corresponding to MST edge `i` (every internal node of a dendrogram
  * corresponds to exactly one tree edge, so edge index doubles as node id —
  * this also lets concurrent §4 tasks fill disjoint slots without
  * synchronization). `root` is the final merge, or leaf 0 when n = 1. The
  * in-order traversal of the leaves equals Prim's visit order from the
  * chosen start vertex, which is what makes it *ordered*.
  */
final class Dendrogram(
    val n: Int,
    val left: Array[Int],
    val right: Array[Int],
    val weight: Array[Double],
    val root: Int,
) {

  @inline def isLeaf(node: Int): Boolean = node < n

  /** Leaves in in-order, paired with their reachability-plot bar: the bar
    * of the first leaf is +inf and each later leaf's bar is the weight of
    * the internal node separating it from its in-order predecessor —
    * exactly the reachability plot (§2.1) when the dendrogram is ordered.
    */
  def reachabilityPlot(): (Array[Int], Array[Double]) = {
    val order = new Array[Int](n)
    val bars = new Array[Double](n)
    var count = 0
    // Explicit stack of (node, pendingWeight) pairs in two primitive arrays —
    // dendrograms can be deep. It holds the pending right children of the
    // current path plus one node, so at most n entries.
    val stackNode = new Array[Int](n)
    val stackPending = new Array[Double](n)
    var top = 0
    stackNode(0) = root
    stackPending(0) = Double.PositiveInfinity
    while (top >= 0) {
      val node = stackNode(top)
      val pending = stackPending(top)
      if (isLeaf(node)) {
        order(count) = node
        bars(count) = pending
        count += 1
        top -= 1
      } else {
        val i = node - n
        stackNode(top) = right(i); stackPending(top) = weight(i)
        top += 1
        stackNode(top) = left(i); stackPending(top) = pending
      }
    }
    require(count == n, s"dendrogram traversal visited $count of $n leaves")
    (order, bars)
  }
}

object Dendrogram {

  /** §4.2 splits off the heaviest tenth (rounded up) of each subproblem. */
  private val HeavyShare = 10

  /** Unweighted distance from every vertex to `s` along the tree (§4.2's
    * vertex distances), by BFS.
    */
  def vertexDistances(n: Int, edges: EdgeBatch, s: Int): Array[Int] = {
    requireStart(n, s)
    // CSR adjacency: v's neighbours are nbr(off(v) until off(v + 1)). Count
    // degrees, prefix-sum them into block ends, then fill each block back to
    // front. While loops, not closures, on this per-edge path.
    val off = new Array[Int](n + 1)
    val m = edges.size
    var i = 0
    while (i < m) { off(edges.u(i)) += 1; off(edges.v(i)) += 1; i += 1 }
    var v = 1
    while (v <= n) { off(v) += off(v - 1); v += 1 }
    val nbr = new Array[Int](off(n))
    i = 0
    while (i < m) {
      val a = edges.u(i); val b = edges.v(i)
      off(a) -= 1; nbr(off(a)) = b
      off(b) -= 1; nbr(off(b)) = a
      i += 1
    }
    val dist = Array.fill(n)(-1)
    val queue = new Array[Int](n) // each vertex is enqueued at most once
    var head = 0
    var tail = 1
    dist(s) = 0
    queue(0) = s
    while (head < tail) {
      val u = queue(head)
      head += 1
      var j = off(u)
      while (j < off(u + 1)) {
        val w = nbr(j)
        if (dist(w) < 0) { dist(w) = dist(u) + 1; queue(tail) = w; tail += 1 }
        j += 1
      }
    }
    require(tail == n, "input edges do not form a connected tree")
    dist
  }

  private def requireStart(n: Int, s: Int): Unit =
    require(s >= 0 && s < n, s"start vertex $s is outside [0, $n)")

  /** The ordered dendrogram of the tree `edges` on `n` vertices from start
    * vertex `s`, by §4.2's top-down divide-and-conquer on `par`. Under every
    * scheme it equals, node for node, merging the edges bottom-up in
    * `Edge.ordering` order, the endpoint with the smaller vertex distance
    * going left. The edges are copied once into columns; `par.join2` runs
    * the BFS beside [[EdgeBatch.sortedIds]]. A range of at most
    * ⌈(n − 1) / `par.targetTasks`⌉ edges (the width rule of the WSPD
    * frontier and the k-NN) merges whole, so under [[SeqScheme]] the whole
    * tree merges in one kernel call; a longer range splits ([[Build]]).
    */
  def build(n: Int, edges: IndexedSeq[Edge], s: Int, par: ParScheme): Dendrogram = {
    require(edges.size == n - 1, s"a tree on $n vertices has ${n - 1} edges, got ${edges.size}")
    requireStart(n, s)
    val cols = EdgeBatch.of(edges)
    val (vdist, order) = par.join2(vertexDistances(n, cols, s), cols.sortedIds(par))
    val st = new State(n, cols, vdist, order)
    val grain = (n - 2) / par.targetTasks + 1 // ⌈(n − 1) / targetTasks⌉, and 1 at n = 1
    new Build(st, par, 0, n - 1, grain).compute()
    st.result()
  }

  /** [[build]] on one thread; kept only because emstbench calls it (ROADMAP item 2). */
  def buildSequential(n: Int, edges: IndexedSeq[Edge], s: Int): Dendrogram =
    build(n, edges, s, SeqScheme)

  /** [[build]] on the fork-join pool; kept only because emstbench calls it (ROADMAP item 2). */
  def buildParallel(n: Int, edges: IndexedSeq[Edge], s: Int): Dendrogram =
    build(n, edges, s, repro.par.ForkJoinScheme)

  /** State of [[build]]: the edge columns `edges`; the vertex distances
    * `vdist`; `order`, the edge ids in `Edge.ordering` order; a
    * path-halving union-find `parent` over vertex ids, whose cluster root
    * `r` stands for dendrogram node `node(r)`; and, for [[regroup]], a
    * second union-find `comp` and the scratch arrays `ids` and `label`,
    * indexed like `order`. Concurrent tasks own distinct light components,
    * hence disjoint union-find paths and disjoint ranges of `order`: no
    * locks needed.
    */
  private final class State(n: Int, edges: EdgeBatch, vdist: Array[Int], order: Array[Int]) {
    private val parent = Array.range(0, n)
    private val node = Array.range(0, n)
    private val comp = new Array[Int](n)
    private val ids = new Array[Int](n - 1)
    private val label = new Array[Int](n - 1)
    private val left = new Array[Int](n - 1)
    private val right = new Array[Int](n - 1)

    private def find(uf: Array[Int], x: Int): Int = {
      var r = x
      while (uf(r) != r) { uf(r) = uf(uf(r)); r = uf(r) } // path halving
      r
    }
    private def cluster(v: Int): Int = find(parent, v)

    /** The kernel: merges what `order(lo until hi)` joins, in order; edge `i` is node `n + i`. */
    def merge(lo: Int, hi: Int): Unit = {
      var k = lo
      while (k < hi) {
        val i = order(k)
        val a = edges.u(i); val b = edges.v(i)
        val ra = cluster(a)
        val rb = cluster(b)
        if (vdist(a) <= vdist(b)) { left(i) = node(ra); right(i) = node(rb) }
        else { left(i) = node(rb); right(i) = node(ra) }
        parent(ra) = rb
        node(rb) = n + i
        k += 1
      }
    }

    /** Stable-regroups `order(lo until hi)` so each connected component of
      * its edges over the current clusters is contiguous; returns each
      * component's end, ascending. The range is copied to `ids`; `comp` is
      * reset on the touched clusters and joined; `label(k)` takes the root
      * of edge `ids(k)`'s component, then `comp(r) = ~c` numbers root `r`'s
      * component `c` in first-seen order and `label(k)` takes `c`; a
      * counting sort writes `ids` back by label.
      */
    def regroup(lo: Int, hi: Int): Array[Int] = {
      System.arraycopy(order, lo, ids, lo, hi - lo)
      var k = lo
      while (k < hi) {
        val ru = cluster(edges.u(ids(k))); comp(ru) = ru
        val rv = cluster(edges.v(ids(k))); comp(rv) = rv
        k += 1
      }
      k = lo
      while (k < hi) {
        comp(find(comp, cluster(edges.u(ids(k))))) = find(comp, cluster(edges.v(ids(k))))
        k += 1
      }
      k = lo
      while (k < hi) { label(k) = find(comp, cluster(edges.u(ids(k)))); k += 1 }
      var count = 0
      k = lo
      while (k < hi) {
        val r = label(k)
        if (comp(r) >= 0) { comp(r) = ~count; count += 1 }
        label(k) = ~comp(r)
        k += 1
      }
      val ends = new Array[Int](count) // each component's size, then start, then end
      k = lo
      while (k < hi) { ends(label(k)) += 1; k += 1 }
      var start = lo
      var c = 0
      while (c < count) { val size = ends(c); ends(c) = start; start += size; c += 1 }
      k = lo
      while (k < hi) { val c = label(k); order(ends(c)) = ids(k); ends(c) += 1; k += 1 }
      ends
    }

    /** Node `n + i` has edge `i`'s weight, so the weights are the `w` column. */
    def result(): Dendrogram = new Dendrogram(n, left, right, edges.w, node(cluster(0)))
  }

  /** One §4.2 subproblem: `order(lo until hi)`, a weight-sorted tree over
    * the current clusters. It splits off its heaviest tenth and regroups
    * the light rest into connected components, built with `par.forRange`
    * before the heavy rest recurses and sees each as one cluster of the
    * shared union-find: a contraction that copies no edge. A light component of more than `grain` edges
    * recurses, unless it holds more than half of the range's light edges:
    * its own light part would be giant again, so recursing would only
    * regroup it once more per level without splitting it, and it is merged
    * whole instead (its edges are contiguous and sorted, exactly what the
    * bottom-up merge takes for them). Smaller components are packed, in
    * order, into tasks of at least `grain` edges, merged whole since a pack
    * is not one sorted tree. All run with `par.forRange` before the heavy
    * rest recurses.
    */
  private final class Build(st: State, par: ParScheme, lo: Int, hi: Int, grain: Int) {
    def compute(): Unit =
      if (hi - lo <= grain) st.merge(lo, hi)
      else {
        val mid = hi - (hi - lo + HeavyShare - 1) / HeavyShare
        val tasks = mutable.ArrayBuffer.empty[Build]
        var packed = lo // start of the pack being filled
        def pack(until: Int): Unit = {
          if (packed < until) tasks += new Build(st, par, packed, until, Int.MaxValue)
          packed = until
        }
        var start = lo
        for (end <- st.regroup(lo, mid)) {
          if (end - start > grain) {
            pack(start)
            val majority = end - start > (mid - lo) / 2
            tasks += new Build(st, par, start, end, if (majority) Int.MaxValue else grain)
            packed = end
          } else if (end - packed >= grain) pack(end)
          start = end
        }
        pack(mid)
        par.forRange(tasks.size)(i => tasks(i).compute())
        new Build(st, par, mid, hi, grain).compute()
      }
  }

  /** DBSCAN* clustering at a given ε from the HDBSCAN* MST and core
    * distances (§2.1): keep MST edges of weight ≤ ε between core points
    * (cd ≤ ε); components of ≥ 1 core point are clusters, everything else
    * is noise. Returns labels (cluster id ≥ 0, or -1 for noise).
    */
  def dbscanStarLabels(
      n: Int,
      mst: IndexedSeq[Edge],
      coreDist: Array[Double],
      eps: Double,
  ): Array[Int] = {
    val uf = new UnionFind(n)
    mst.foreach { e =>
      if (e.w <= eps && coreDist(e.u) <= eps && coreDist(e.v) <= eps) uf.union(e.u, e.v)
    }
    firstSeenLabels(uf, i => coreDist(i) <= eps)
  }

  /** Single-linkage clustering at distance threshold ε from the EMST:
    * connected components over edges of weight ≤ ε.
    */
  def singleLinkageLabels(n: Int, mst: IndexedSeq[Edge], eps: Double): Array[Int] = {
    val uf = new UnionFind(n)
    mst.foreach(e => if (e.w <= eps) uf.union(e.u, e.v))
    firstSeenLabels(uf, _ => true)
  }

  /** Labels each member point by its union-find component, numbered in
    * order of first appearance by point id; other points get -1.
    */
  private def firstSeenLabels(uf: UnionFind, member: Int => Boolean): Array[Int] = {
    val labels = Array.fill(uf.n)(-1)
    val rootLabel = Array.fill(uf.n)(-1)
    var next = 0
    var i = 0
    while (i < uf.n) {
      if (member(i)) {
        val r = uf.find(i)
        if (rootLabel(r) < 0) { rootLabel(r) = next; next += 1 }
        labels(i) = rootLabel(r)
      }
      i += 1
    }
    labels
  }
}
