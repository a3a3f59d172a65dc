package repro.core

import repro.kdtree.KdTree
import repro.par.ParScheme

/** HDBSCAN* core distances: cd(p) = distance from p to its minPts-nearest
  * neighbor, including p itself (§2.1). Computed with parallel k-NN queries
  * against the kd-tree. Queries run in kd-tree order: the work items are
  * ranges of positions in `tree.perm`, so consecutive queries are spatial
  * neighbors and walk the same nodes, and each Spark task answers its range
  * against the broadcast tree. The answers are scattered back to point ids.
  * The result does not depend on query order.
  */
object CoreDist {

  def compute(tree: KdTree, minPts: Int, par: ParScheme): Array[Double] = {
    val n = tree.points.n
    require(minPts >= 1 && minPts <= n, s"minPts=$minPts out of range for n=$n")
    val sharedTree = par.share(tree)
    try {
      val chunks = chunkRanges(n, par.targetTasks * 4)
      val parts = par.mapItems(chunks) { case (lo, hi) =>
        val t = sharedTree.value
        val heap = new Array[Double](minPts) // per item: tasks run concurrently
        val out = new Array[Double](hi - lo)
        var i = lo
        while (i < hi) {
          out(i - lo) = t.kthNearestDistance(t.perm(i), minPts, heap)
          i += 1
        }
        out
      }
      val cd = new Array[Double](n)
      var pos = 0
      parts.foreach { p =>
        var j = 0
        while (j < p.length) { cd(tree.perm(pos)) = p(j); pos += 1; j += 1 }
      }
      cd
    } finally sharedTree.release()
  }

  /** Splits the kd-tree positions [0, n) (indices into `perm`, not point
    * ids) into at most `parts` contiguous (lo, hi) ranges.
    */
  def chunkRanges(n: Int, parts: Int): IndexedSeq[(Int, Int)] = {
    val p = math.max(1, math.min(parts, n))
    (0 until p).map { i =>
      val lo = (i.toLong * n / p).toInt
      val hi = ((i + 1).toLong * n / p).toInt
      (lo, hi)
    }.filter { case (lo, hi) => hi > lo }
  }
}
