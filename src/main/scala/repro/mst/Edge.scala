package repro.mst

/** A weighted undirected edge between point ids `u` and `v`. */
final case class Edge(u: Int, v: Int, w: Double) extends Serializable

object Edge {

  /** Deterministic total order: by weight, ties broken by endpoint ids so
    * every algorithm (and the dendrogram) processes equal-weight edges in
    * the same order.
    */
  implicit val ordering: Ordering[Edge] =
    Ordering.by((e: Edge) => (e.w, math.min(e.u, e.v), math.max(e.u, e.v)))

  /** Runs below this length are insertion-sorted before merging. */
  private val Run = 32

  /** Edge ids in the order of the stable `edges.sorted(ordering)`, full
    * ties in input order. The keys are copied once into primitive arrays
    * and compared as [[ordering]] compares them (`java.lang.Double.compare`
    * on the weight, then the smaller and the larger endpoint), by a
    * bottom-up merge sort: stable, O(m log m) in the worst case, and
    * nothing boxed per comparison.
    */
  def sortedIds(edges: IndexedSeq[Edge]): Array[Int] = {
    val m = edges.length
    val keys = new Keys(m)
    var i = 0
    while (i < m) {
      val e = edges(i)
      keys.w(i) = e.w
      keys.lo(i) = math.min(e.u, e.v)
      keys.hi(i) = math.max(e.u, e.v)
      i += 1
    }
    var src = Array.range(0, m)
    var dst = new Array[Int](m)
    var a = 0
    while (a < m) { keys.insertionSort(src, a, math.min(a + Run, m)); a += Run }
    var width = Run
    while (width < m) {
      a = 0
      while (a < m) {
        val mid = math.min(a + width, m)
        val end = math.min(a + 2 * width, m)
        keys.merge(src, dst, a, mid, end)
        a = end
      }
      val t = src; src = dst; dst = t
      width *= 2
    }
    src
  }

  /** Primitive sort keys of edge ids: weight, smaller and larger endpoint. */
  private final class Keys(m: Int) {
    val w = new Array[Double](m)
    val lo = new Array[Int](m)
    val hi = new Array[Int](m)

    def compare(i: Int, j: Int): Int = {
      val c = java.lang.Double.compare(w(i), w(j))
      if (c != 0) c
      else {
        val d = Integer.compare(lo(i), lo(j))
        if (d != 0) d else Integer.compare(hi(i), hi(j))
      }
    }

    /** Stably sorts `ids(from until until)`. */
    def insertionSort(ids: Array[Int], from: Int, until: Int): Unit = {
      var k = from + 1
      while (k < until) {
        val id = ids(k)
        var j = k
        while (j > from && compare(ids(j - 1), id) > 0) { ids(j) = ids(j - 1); j -= 1 }
        ids(j) = id
        k += 1
      }
    }

    /** Merges the sorted runs `src(a until mid)` and `src(mid until end)`
      * into `dst(a until end)`, the left run first on ties.
      */
    def merge(src: Array[Int], dst: Array[Int], a: Int, mid: Int, end: Int): Unit =
      if (mid >= end || compare(src(mid - 1), src(mid)) <= 0) System.arraycopy(src, a, dst, a, end - a)
      else {
        var i = a
        var j = mid
        var k = a
        while (i < mid && j < end) {
          if (compare(src(i), src(j)) <= 0) { dst(k) = src(i); i += 1 }
          else { dst(k) = src(j); j += 1 }
          k += 1
        }
        System.arraycopy(src, i, dst, k, mid - i)
        System.arraycopy(src, j, dst, k, end - j)
      }
  }
}
