package repro.geometry

/** A dense, immutable set of `n` points in `dim`-dimensional Euclidean space.
  *
  * Coordinates are stored in one flat row-major `Array[Double]` so the BCCP
  * inner loops stay allocation-free. Point ids are `0 until n`.
  */
final class PointSet(val coords: Array[Double], val dim: Int) {
  require(dim > 0, s"dim must be positive, got $dim")
  require(coords.length % dim == 0,
    s"coords length ${coords.length} is not a multiple of dim $dim")
  locally {
    val bad = coords.indexWhere(x => x.isNaN || x.isInfinite)
    require(bad < 0, s"point ${bad / dim} has non-finite coordinate ${bad % dim}: ${coords(bad)}")
  }

  /** Number of points. */
  val n: Int = coords.length / dim

  /** Coordinate `k` of point `i`. */
  @inline def apply(i: Int, k: Int): Double = coords(i * dim + k)

  /** Squared Euclidean distance between points `i` and `j`. */
  def dist2(i: Int, j: Int): Double = {
    var s = 0.0
    var k = 0
    val oi = i * dim
    val oj = j * dim
    while (k < dim) {
      val d = coords(oi + k) - coords(oj + k)
      s += d * d
      k += 1
    }
    s
  }

  /** Euclidean distance between points `i` and `j`. */
  @inline def dist(i: Int, j: Int): Double = math.sqrt(dist2(i, j))

  /** A copy of point `i` as a standalone array (for tests / debugging). */
  def point(i: Int): Array[Double] = {
    val out = new Array[Double](dim)
    System.arraycopy(coords, i * dim, out, 0, dim)
    out
  }
}

object PointSet {

  /** Builds a point set from a sequence of coordinate rows. */
  def fromRows(rows: Seq[Array[Double]]): PointSet = {
    require(rows.nonEmpty, "empty point set")
    val dim = rows.head.length
    val bad = rows.indexWhere(_.length != dim)
    require(bad < 0, s"row $bad has ${rows(bad).length} coordinates, expected $dim")
    val coords = new Array[Double](rows.size * dim)
    var i = 0
    rows.foreach { r => System.arraycopy(r, 0, coords, i * dim, dim); i += 1 }
    new PointSet(coords, dim)
  }
}
