package repro.core

import repro.kdtree.KdTree
import repro.par.ParScheme

/** HDBSCAN* core distances: cd(p) = distance from p to its minPts-nearest
  * neighbor, including p itself (§2.1). Computed with parallel k-NN queries
  * against the kd-tree, as the paper's shared-memory loop does. Queries run
  * in kd-tree order: the work items are ranges of positions in `tree.perm`,
  * so consecutive queries are spatial neighbors and walk the same nodes.
  * Each range writes its answers straight into the result, indexed by point
  * id. The ranges are one [[ParScheme.forRange]] under `par`, reading the
  * tree in place. The result does not depend on query order.
  */
object CoreDist {

  def compute(tree: KdTree, minPts: Int, par: ParScheme): Array[Double] = {
    val n = tree.points.n
    require(minPts >= 1 && minPts <= n, s"minPts=$minPts out of range for n=$n")
    val chunks = chunkRanges(n, par.targetTasks * 4)
    val cd = new Array[Double](n)
    par.forRange(chunks.size) { c =>
      val (lo, hi) = chunks(c)
      val heap = new Array[Double](minPts) // per range: ranges run concurrently
      var i = lo
      while (i < hi) {
        val p = tree.perm(i)
        cd(p) = tree.kthNearestDistance(p, minPts, heap)
        i += 1
      }
    }
    cd
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
