package repro.mst

import java.util.Arrays

import scala.collection.immutable

import repro.par.ParScheme

/** The one edge-list format, from GetPairs through Kruskal to the dendrogram: edge `i` joins
  * `u(i)` and `v(i)` with weight `w(i)`, and the columns are never written after construction.
  * As an `IndexedSeq[Edge]` it is a read view that builds an `Edge` per `apply`.
  */
final class EdgeBatch(val u: Array[Int], val v: Array[Int], val w: Array[Double])
    extends immutable.IndexedSeq[Edge] {
  require(v.length == u.length && w.length == u.length, "edge columns differ in length")

  def length: Int = u.length

  def apply(i: Int): Edge = Edge(u(i), v(i), w(i))

  /** Edge ids in the order of the stable `sorted(Edge.ordering)`:
    * by weight (as `java.lang.Double.compare`), then the smaller and the
    * larger endpoint, full ties in id order.
    *
    * One primitive sort does most of the work. Each id's key packs the
    * order-preserving bits of its weight above the id itself, in the
    * `idBits` low bits, so sorting the `Long` keys with `par.sort` orders
    * the ids by the weight's high bits, then by id. Only a run of keys
    * whose weight bits agree above the id field, most often a run of
    * exactly tied weights, still needs the rest of the order, which
    * [[RunSorter]] gives it in O(k log k) for a run of k. Runs are
    * independent, so `par.targetTasks` slices of the order, cut at run
    * starts, are fixed up with `par.forRange`.
    *
    * A batch already in that order, such as an MST in the order its
    * Kruskal scan accepted the edges, is found by one linear pass and gets
    * the identity without a sort.
    */
  def sortedIds(par: ParScheme): Array[Int] = {
    val m = length
    var i = 1
    while (i < m && !precedes(i, i - 1)) i += 1
    if (i >= m) return Array.range(0, m)
    val idBits = 32 - Integer.numberOfLeadingZeros(math.max(m - 1, 1))
    val idMask = (1L << idBits) - 1
    val keys = new Array[Long](m)
    i = 0
    while (i < m) { keys(i) = (EdgeBatch.orderedBits(w(i)) & ~idMask) | i; i += 1 }
    par.sort(keys)
    val ids = new Array[Int](m)
    i = 0
    while (i < m) { ids(i) = (keys(i) & idMask).toInt; i += 1 }
    val slices = par.targetTasks
    def runStart(i: Int): Int = {
      var a = i
      while (a > 0 && a < m && ((keys(a - 1) ^ keys(a)) & ~idMask) == 0) a += 1
      a
    }
    par.forRange(slices) { s =>
      val runs = new RunSorter(idMask)
      val end = runStart(((s + 1).toLong * m / slices).toInt)
      var a = runStart((s.toLong * m / slices).toInt)
      while (a < end) {
        var b = a + 1
        while (b < m && ((keys(a) ^ keys(b)) & ~idMask) == 0) b += 1
        if (b - a > 1) runs.orderRun(ids, a, b)
        a = b
      }
    }
    ids
  }

  /** True iff edge `i` comes strictly before edge `j` in `Edge.ordering`. */
  private def precedes(i: Int, j: Int): Boolean = {
    val wi = EdgeBatch.orderedBits(w(i))
    val wj = EdgeBatch.orderedBits(w(j))
    if (wi != wj) wi < wj
    else {
      val li = math.min(u(i), v(i))
      val lj = math.min(u(j), v(j))
      if (li != lj) li < lj else math.max(u(i), v(i)) < math.max(u(j), v(j))
    }
  }

  /** Scratch space for ordering runs whose keys tie above the id field. */
  private final class RunSorter(idMask: Long) {
    private var scratch = new Array[Long](0)
    private var moved = new Array[Int](0)

    /** Orders `ids(a until b)`, which arrive in id order, by the low weight
      * bits, the smaller endpoint and the larger endpoint: one stable pass
      * per field, least significant first, skipping a field that is
      * constant over the run. A pass sorts `Long`s holding the field above
      * the id's position in the run, so equal fields keep their order.
      */
    def orderRun(ids: Array[Int], a: Int, b: Int): Unit = {
      val k = b - a
      if (scratch.length < k) { scratch = new Array[Long](k); moved = new Array[Int](k) }
      pass(ids, a, k, i => math.max(u(i), v(i)))
      pass(ids, a, k, i => math.min(u(i), v(i)))
      pass(ids, a, k, i => (EdgeBatch.orderedBits(w(i)) & idMask).toInt)
    }

    private def pass(ids: Array[Int], a: Int, k: Int, field: Int => Int): Unit = {
      val first = field(ids(a))
      var constant = true
      var j = 0
      while (j < k) {
        val f = field(ids(a + j))
        if (f != first) constant = false
        scratch(j) = (f.toLong << 32) | j
        j += 1
      }
      if (!constant) {
        Arrays.sort(scratch, 0, k)
        j = 0
        while (j < k) { moved(j) = ids(a + scratch(j).toInt); j += 1 }
        System.arraycopy(moved, 0, ids, a, k)
      }
    }
  }
}

object EdgeBatch {

  /** `edges` itself if it is a batch, else its edges copied into columns. */
  def of(edges: IndexedSeq[Edge]): EdgeBatch = edges match {
    case b: EdgeBatch => b
    case _ =>
      val b = new Builder(edges.length)
      edges.foreach(e => b.add(e.u, e.v, e.w))
      b.result()
  }

  /** The batches' edges one after another, in one batch. */
  def concat(parts: Seq[EdgeBatch]): EdgeBatch =
    if (parts.size == 1) parts.head
    else {
      val m = parts.iterator.map(_.length).sum
      val (u, v, w) = (new Array[Int](m), new Array[Int](m), new Array[Double](m))
      var at = 0
      for (p <- parts) {
        System.arraycopy(p.u, 0, u, at, p.length)
        System.arraycopy(p.v, 0, v, at, p.length)
        System.arraycopy(p.w, 0, w, at, p.length)
        at += p.length
      }
      new EdgeBatch(u, v, w)
    }

  /** The bits of `w` as a `Long` whose signed order is
    * `java.lang.Double.compare`'s: a negative weight's magnitude bits are
    * flipped, so -0.0 sorts just below 0.0.
    */
  @inline def orderedBits(w: Double): Long = {
    val b = java.lang.Double.doubleToLongBits(w)
    if (b < 0) b ^ Long.MaxValue else b
  }

  /** Appends edges to growable columns. */
  final class Builder(capacity: Int = 16) {
    private var u = new Array[Int](math.max(capacity, 1))
    private var v = new Array[Int](u.length)
    private var w = new Array[Double](u.length)
    private var count = 0

    /** The number of edges added so far, and the weight of the last one (when `size > 0`). */
    def size: Int = count
    def lastWeight: Double = w(count - 1)

    def add(a: Int, b: Int, weight: Double): Unit = {
      if (count == u.length) {
        val cap = 2 * count
        u = Arrays.copyOf(u, cap); v = Arrays.copyOf(v, cap); w = Arrays.copyOf(w, cap)
      }
      u(count) = a; v(count) = b; w(count) = weight
      count += 1
    }

    /** The edges added so far, in columns trimmed to their count. */
    def result(): EdgeBatch =
      if (count == u.length) new EdgeBatch(u, v, w)
      else new EdgeBatch(Arrays.copyOf(u, count), Arrays.copyOf(v, count), Arrays.copyOf(w, count))
  }
}
