package repro.core

import repro.kdtree.KdTree
import repro.par.ParScheme

/** HDBSCAN* core distances: cd(p) = distance from p to its minPts-nearest
  * neighbor, including p itself (§2.1). Computed with parallel k-NN queries
  * against the kd-tree — point ids are chunked into work items and each
  * Spark task answers its chunk against the broadcast tree.
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
          out(i - lo) = t.kthNearestDistance(i, minPts, heap)
          i += 1
        }
        out
      }
      val cd = new Array[Double](n)
      var off = 0
      parts.foreach { p => System.arraycopy(p, 0, cd, off, p.length); off += p.length }
      cd
    } finally sharedTree.release()
  }

  /** Splits [0, n) into at most `parts` contiguous (lo, hi) ranges. */
  def chunkRanges(n: Int, parts: Int): IndexedSeq[(Int, Int)] = {
    val p = math.max(1, math.min(parts, n))
    (0 until p).map { i =>
      val lo = (i.toLong * n / p).toInt
      val hi = ((i + 1).toLong * n / p).toInt
      (lo, hi)
    }.filter { case (lo, hi) => hi > lo }
  }
}
