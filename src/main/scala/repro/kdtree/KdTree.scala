package repro.kdtree

import repro.geometry.PointSet
import repro.par.{ParScheme, SeqScheme}

/** Array-based spatial-median kd-tree (§2.3, §3.1.1).
  *
  * Nodes are stored in pre-order in flat arrays (children always have larger
  * indices than their parent), each node owning a contiguous range
  * `[lo, hi)` of the permutation array `perm` — so a node's points are a
  * contiguous slice, which keeps the BCCP inner loops tight and makes the
  * whole tree a few flat arrays that parallel work items read in place.
  *
  * Splits follow the paper: the bounding box is cut at the midpoint of its
  * widest dimension ("spatial median"); if the box is degenerate (all points
  * identical) the range is split in half by count so construction always
  * terminates. The default leaf size is 1, as required for the WSPD to
  * consist of genuinely well-separated pairs.
  *
  * The build also stores each node's box center and circumscribing-sphere
  * radius, so the separation and bound tests of the WSPD traversals read
  * them instead of looping over the box on every visit.
  *
  * Three tree passes evaluate their two children with
  * [[repro.par.ParScheme.join2]] above [[KdTree.ForkGrain]] points: the build
  * ([[KdTree.build]], leaf size 1 only) and the bottom-up node passes of
  * [[KdTree.bottomUp]] (the core-distance stats and the per-round
  * `Wspd.nodeComponents`). Each gives the same arrays as its inline run.
  */
final class KdTree(
    val points: PointSet,
    val perm: Array[Int],
    val lo: Array[Int],
    val hi: Array[Int],
    val left: Array[Int],
    val right: Array[Int],
    val boxMin: Array[Double],
    val boxMax: Array[Double],
    centers: Array[Double],
    radii: Array[Double],
    val nNodes: Int,
) {

  val dim: Int = points.dim

  /** Root node id (always 0). */
  @inline def root: Int = 0

  @inline def isLeaf(a: Int): Boolean = left(a) < 0

  /** Number of points under node `a`. */
  @inline def size(a: Int): Int = hi(a) - lo(a)

  /** Center coordinate `k` of node `a`'s bounding box (stored by
    * [[KdTree.build]]).
    */
  @inline def center(a: Int, k: Int): Double = centers(a * dim + k)

  /** Radius of the bounding sphere circumscribing node `a`'s box (stored by
    * [[KdTree.build]]).
    */
  @inline def radius(a: Int): Double = radii(a)

  /** Diameter of node `a`'s bounding sphere (the paper's A_diam). */
  @inline def diameter(a: Int): Double = 2.0 * radius(a)

  /** Distance between the bounding-sphere centers of `a` and `b`. */
  def centerDist(a: Int, b: Int): Double = {
    var s = 0.0
    var k = 0
    while (k < dim) {
      val d = center(a, k) - center(b, k)
      s += d * d
      k += 1
    }
    math.sqrt(s)
  }

  /** The paper's d(A,B): minimum distance between the bounding spheres of
    * `a` and `b`, clamped at 0. A lower bound on any cross distance. `cd`
    * is `centerDist(a, b)`, which a traversal computes once per pair.
    */
  @inline def sphereDist(a: Int, b: Int, cd: Double): Double =
    math.max(0.0, cd - radius(a) - radius(b))

  /** Upper bound on any distance between a point of `a` and a point of `b`
    * (the d_max(A,B) of Figure 3); `cd` is `centerDist(a, b)`.
    */
  @inline def sphereMaxDist(a: Int, b: Int, cd: Double): Double =
    cd + radius(a) + radius(b)

  /** Squared distance from an arbitrary query point, `q(qOff until
    * qOff + dim)`, to node `a`'s box.
    */
  def boxDist2(a: Int, q: Array[Double], qOff: Int = 0): Double = {
    var s = 0.0
    var k = 0
    while (k < dim) {
      val v = q(qOff + k)
      val lo = boxMin(a * dim + k)
      val hi = boxMax(a * dim + k)
      val d = if (v < lo) lo - v else if (v > hi) v - hi else 0.0
      s += d * d
      k += 1
    }
    s
  }

  /** Distance (self included, which is 0) from point `qi` to its `k`-th
    * nearest neighbor: the HDBSCAN* core distance for `k` = minPts.
    * Standard branch-and-bound descent, the nearer child first; a node of at
    * most [[KdTree.KnnBucket]] points is scanned as one range. `heap` is
    * the caller's scratch (length ≥ k, contents ignored); on return
    * `heap(0 until k)` is a max-heap of the `k` smallest squared distances.
    */
  def kthNearestDistance(qi: Int, k: Int, heap: Array[Double]): Double = {
    require(k >= 1 && k <= points.n, s"kNN: requested $k neighbors of ${points.n} points")
    require(heap.length >= k, s"kNN: heap of ${heap.length} slots for $k neighbors")
    knnVisit(root, qi, k, heap, 0)
    math.sqrt(heap(0))
  }

  /** Visits node `a` for [[kthNearestDistance]]; `size` is the number of
    * heap entries so far, and the new count is returned. Scanning a small
    * node whole visits a superset of what the descent would, and every
    * skipped subtree's box is no nearer than the heap top, so the k-th
    * smallest squared distance is the same.
    */
  private def knnVisit(a: Int, qi: Int, k: Int, heap: Array[Double], size: Int): Int =
    if (isLeaf(a) || this.size(a) <= KdTree.KnnBucket) {
      var sz = size
      var i = lo(a)
      while (i < hi(a)) {
        sz = KdTree.heapPush(heap, sz, k, points.dist2(perm(i), qi))
        i += 1
      }
      sz
    } else {
      val l = left(a); val r = right(a)
      val dl = boxDist2(l, points.coords, qi * dim)
      val dr = boxDist2(r, points.coords, qi * dim)
      val nearLeft = dl <= dr
      val sz = knnVisit(if (nearLeft) l else r, qi, k, heap, size)
      if (sz < k || (if (nearLeft) dr else dl) < heap(0)) knnVisit(if (nearLeft) r else l, qi, k, heap, sz)
      else sz
    }

  /** Distances (including self, which is 0) from point `qi` to its `k`
    * nearest neighbors, in non-decreasing order: the heap of
    * [[kthNearestDistance]], square-rooted and sorted.
    */
  def kNearestDistances(qi: Int, k: Int): Array[Double] = {
    val heap = new Array[Double](math.max(k, 0))
    kthNearestDistance(qi, k, heap)
    heap.map(math.sqrt).sorted
  }

  /** Point ids under node `a` (copy; for tests and small-scale code). */
  def pointsUnder(a: Int): Array[Int] = perm.slice(lo(a), hi(a))

  /** Calls `visit(a)` once for every node `a`, each after both its
    * children: the order of the bottom-up node passes
    * ([[KdTree.coreDistStats]], `Wspd.nodeComponents`). A node of more than
    * [[KdTree.ForkGrain]] points visits its two subtrees with
    * [[repro.par.ParScheme.join2]] under `par`; a smaller subtree, a
    * contiguous id range in the pre-order layout, is visited by one loop
    * over its ids from the last down.
    */
  def bottomUp(par: ParScheme)(visit: Int => Unit): Unit = {
    def go(a: Int): Unit =
      if (!isLeaf(a) && size(a) > KdTree.ForkGrain) {
        par.join2(go(left(a)), go(right(a)))
        visit(a)
      } else {
        var last = a // the subtree's last pre-order id: down its right spine
        while (!isLeaf(last)) last = right(last)
        while (last >= a) { visit(last); last -= 1 }
      }
    go(root)
  }
}

object KdTree {

  /** Largest node [[KdTree.kthNearestDistance]] scans as one `[lo, hi)`
    * range instead of descending into. Below ~16 points the per-node box
    * tests cost more than the distances they prune; 8 and 32 measured about
    * the same on 200K uniform 2D points.
    */
  private val KnnBucket = 16

  /** Points above which a tree pass forks its two children; a subtree of
    * fewer points is built or visited inline, so a forked task is never
    * smaller than a few thousand nodes' work.
    */
  private[kdtree] val ForkGrain = 4096

  /** Builds a kd-tree over `ps`. `leafSize` defaults to 1 (required by the
    * WSPD); k-NN-only callers may use a larger leaf. Every kd-tree-based
    * EMST, HDBSCAN* and OPTICS entry point builds its tree here first, so
    * this is where they reject an empty point set.
    *
    * With `leafSize` 1, a node of more than [[ForkGrain]] points builds
    * its two children with [[repro.par.ParScheme.join2]] under `par`: a
    * subtree of m points then has exactly 2m − 1 nodes, so the right
    * child's id is known before the left subtree is built. Children
    * partition disjoint slices of `perm` and write disjoint node ids, so
    * every array equals the inline build's. A tree with larger leaves
    * builds inline.
    */
  def build(ps: PointSet, leafSize: Int = 1, par: ParScheme = SeqScheme): KdTree = {
    require(ps.n >= 1, s"empty point set: ${ps.dim}-dimensional, no points")
    require(leafSize >= 1, s"leafSize must be at least 1, got $leafSize")
    val n = ps.n
    val dim = ps.dim
    val maxNodes = 2 * n // leafSize=1 gives exactly 2n-1 nodes
    val perm = new Array[Int](n)
    var p = 0
    while (p < n) { perm(p) = p; p += 1 }
    val loA = new Array[Int](maxNodes)
    val hiA = new Array[Int](maxNodes)
    val leftA = new Array[Int](maxNodes)
    val rightA = new Array[Int](maxNodes)
    val bMin = new Array[Double](maxNodes * dim)
    val bMax = new Array[Double](maxNodes * dim)
    val ctr = new Array[Double](maxNodes * dim)
    val rad = new Array[Double](maxNodes)

    def setNode(a: Int, lo: Int, hi: Int): Unit = {
      loA(a) = lo; hiA(a) = hi; leftA(a) = -1; rightA(a) = -1
      var s = 0.0
      var k = 0
      while (k < dim) {
        var mn = Double.PositiveInfinity
        var mx = Double.NegativeInfinity
        var i = lo
        while (i < hi) {
          val v = ps(perm(i), k)
          if (v < mn) mn = v
          if (v > mx) mx = v
          i += 1
        }
        bMin(a * dim + k) = mn
        bMax(a * dim + k) = mx
        ctr(a * dim + k) = 0.5 * (mn + mx)
        val w = mx - mn
        s += w * w
        k += 1
      }
      rad(a) = 0.5 * math.sqrt(s)
    }

    // Builds the subtree over perm(lo until hi) with root id `a`, in
    // pre-order; returns the id after its last node.
    def buildRange(a: Int, lo: Int, hi: Int): Int = {
      setNode(a, lo, hi)
      if (hi - lo <= leafSize) a + 1
      else {
        // Widest dimension of the bounding box.
        var wd = 0
        var wBest = -1.0
        var k = 0
        while (k < dim) {
          val w = bMax(a * dim + k) - bMin(a * dim + k)
          if (w > wBest) { wBest = w; wd = k }
          k += 1
        }
        var mid = lo
        if (wBest > 0.0) {
          val splitVal = 0.5 * (bMin(a * dim + wd) + bMax(a * dim + wd))
          // In-place partition: coords < splitVal to the left.
          var i = lo
          var j = hi - 1
          while (i <= j) {
            if (ps(perm(i), wd) < splitVal) i += 1
            else {
              val t = perm(i); perm(i) = perm(j); perm(j) = t
              j -= 1
            }
          }
          mid = i
          // Guard: midpoint split always separates (min < splitVal <= max),
          // but floating rounding can collapse one side; fall back to count.
          if (mid == lo || mid == hi) mid = lo + (hi - lo) / 2
        } else {
          mid = lo + (hi - lo) / 2 // all points identical: split by count
        }
        leftA(a) = a + 1
        if (leafSize == 1 && hi - lo > ForkGrain) {
          val r = a + 2 * (mid - lo)
          rightA(a) = r
          par.join2(buildRange(a + 1, lo, mid), buildRange(r, mid, hi))._2
        } else {
          val r = buildRange(a + 1, lo, mid)
          rightA(a) = r
          buildRange(r, mid, hi)
        }
      }
    }

    val nNodes = buildRange(0, 0, n)
    new KdTree(ps, perm, loA, hiA, leftA, rightA, bMin, bMax, ctr, rad, nNodes)
  }

  /** Pushes `v` into the bounded max-heap `heap(0 until size)` of
    * capacity `k`; returns the new size. A full heap keeps the `k` smallest.
    */
  private def heapPush(heap: Array[Double], size: Int, k: Int, v: Double): Int =
    if (size < k) {
      heap(size) = v
      var c = size
      while (c > 0 && heap((c - 1) / 2) < heap(c)) {
        val p = (c - 1) / 2
        val t = heap(p); heap(p) = heap(c); heap(c) = t
        c = p
      }
      size + 1
    } else {
      if (v < heap(0)) {
        heap(0) = v
        var p = 0
        var done = false
        while (!done) {
          val l = 2 * p + 1; val r = 2 * p + 2
          var m = p
          if (l < k && heap(l) > heap(m)) m = l
          if (r < k && heap(r) > heap(m)) m = r
          if (m == p) done = true
          else { val t = heap(m); heap(m) = heap(p); heap(p) = t; p = m }
        }
      }
      size
    }

  /** Per-node min and max core distance (cd_min(A), cd_max(A) of Table 1),
    * computed bottom-up given per-point core distances, as a
    * [[KdTree.bottomUp]] pass under `par`.
    */
  def coreDistStats(t: KdTree, cd: Array[Double], par: ParScheme = SeqScheme): (Array[Double], Array[Double]) = {
    val mn = new Array[Double](t.nNodes)
    val mx = new Array[Double](t.nNodes)
    t.bottomUp(par) { a =>
      if (t.isLeaf(a)) {
        var lo = Double.PositiveInfinity
        var hi = Double.NegativeInfinity
        var i = t.lo(a)
        while (i < t.hi(a)) {
          val v = cd(t.perm(i))
          if (v < lo) lo = v
          if (v > hi) hi = v
          i += 1
        }
        mn(a) = lo; mx(a) = hi
      } else {
        mn(a) = math.min(mn(t.left(a)), mn(t.right(a)))
        mx(a) = math.max(mx(t.left(a)), mx(t.right(a)))
      }
    }
    (mn, mx)
  }
}
