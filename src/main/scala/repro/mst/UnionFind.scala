package repro.mst

/** Union-find with path halving and union by rank.
  *
  * Used by Kruskal's algorithm and by the GFK/MemoGFK filtering steps. The
  * [[snapshot]] method produces a fully-compressed parent array that
  * parallel work items read to answer connectivity queries against the
  * (immutable) round-start state — exactly the semantics of the paper's
  * per-round filter.
  */
final class UnionFind(val n: Int) {
  private val parent: Array[Int] = {
    val p = new Array[Int](n)
    var i = 0
    while (i < n) { p(i) = i; i += 1 }
    p
  }
  private val rank: Array[Byte] = new Array[Byte](n)
  private var nComponents: Int = n

  /** Representative of `x`'s component. */
  def find(x: Int): Int = {
    var r = x
    while (parent(r) != r) {
      parent(r) = parent(parent(r)) // path halving
      r = parent(r)
    }
    r
  }

  def connected(x: Int, y: Int): Boolean = find(x) == find(y)

  /** Joins the components of `x` and `y`; returns false if already joined. */
  def union(x: Int, y: Int): Boolean = {
    val rx = find(x)
    val ry = find(y)
    if (rx == ry) false
    else {
      if (rank(rx) < rank(ry)) parent(rx) = ry
      else if (rank(rx) > rank(ry)) parent(ry) = rx
      else { parent(ry) = rx; rank(rx) = (rank(rx) + 1).toByte }
      nComponents -= 1
      true
    }
  }

  def components: Int = nComponents

  /** Fully-compressed copy of the parent array: `snap(i)` is the current
    * representative of `i`. Never written after, so safe to share across
    * threads.
    */
  def snapshot(): Array[Int] = {
    val snap = new Array[Int](n)
    var i = 0
    while (i < n) { snap(i) = find(i); i += 1 }
    snap
  }
}
