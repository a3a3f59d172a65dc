package repro

import java.util.Random

import repro.geometry.PointSet
import repro.mst.{Edge, Prim}

/** Shared brute-force oracles and fixtures for the test suites. */
object TestUtil {

  /** `n` uniform points in [0, side)^dim, deterministic in `seed`. */
  def randomPoints(n: Int, dim: Int, seed: Long, side: Double = 100.0): PointSet = {
    val rnd = new Random(seed)
    new PointSet(Array.fill(n * dim)(rnd.nextDouble() * side), dim)
  }

  /** Random points with a fixed fraction of exact duplicates mixed in. */
  def pointsWithDuplicates(n: Int, dim: Int, seed: Long): PointSet = {
    val rnd = new Random(seed)
    val base = randomPoints(n, dim, seed)
    val coords = base.coords.clone()
    var i = n / 2
    while (i < n) { // duplicate an earlier point
      val src = rnd.nextInt(n / 2)
      System.arraycopy(base.coords, src * dim, coords, i * dim, dim)
      i += 1
    }
    new PointSet(coords, dim)
  }

  /** Every point of the integer grid {0, ..., side - 1}^dim, in row-major
    * order: the heaviest distance ties.
    */
  def integerGrid(side: Int, dim: Int): PointSet = {
    val n = math.pow(side, dim).toInt
    val coords = new Array[Double](n * dim)
    for (i <- 0 until n) {
      var r = i
      for (k <- dim - 1 to 0 by -1) { coords(i * dim + k) = (r % side).toDouble; r /= side }
    }
    new PointSet(coords, dim)
  }

  /** `n` points spaced evenly on a circle of radius 1000: every triangle of
    * consecutive points has (up to rounding) the same circumcircle.
    */
  def cocircularRing(n: Int): PointSet =
    PointSet.fromRows((0 until n).map { i =>
      val a = 2 * math.Pi * i / n
      Array(1000 * math.cos(a), 1000 * math.sin(a))
    })

  /** Clustered points (two Gaussian blobs + noise) for skewed-shape tests. */
  def clusteredPoints(n: Int, dim: Int, seed: Long): PointSet = {
    val rnd = new Random(seed)
    val coords = new Array[Double](n * dim)
    var i = 0
    while (i < n) {
      val mode = i % 3
      var k = 0
      while (k < dim) {
        coords(i * dim + k) = mode match {
          case 0 => 10.0 + rnd.nextGaussian()
          case 1 => 50.0 + rnd.nextGaussian() * 0.1
          case _ => rnd.nextDouble() * 100.0
        }
        k += 1
      }
      i += 1
    }
    new PointSet(coords, dim)
  }

  /** Brute-force EMST via dense Prim. */
  def bruteEmst(ps: PointSet): IndexedSeq[Edge] =
    Prim.denseMst(ps.n, (i, j) => ps.dist(i, j))

  /** Brute-force core distances: sorted distances (including self) per point. */
  def bruteCoreDist(ps: PointSet, minPts: Int): Array[Double] =
    Array.tabulate(ps.n) { i =>
      val ds = Array.tabulate(ps.n)(j => ps.dist(i, j)).sorted
      ds(minPts - 1)
    }

  /** Brute-force MST of the mutual reachability graph. */
  def bruteMutualReachMst(ps: PointSet, minPts: Int): IndexedSeq[Edge] = {
    val cd = bruteCoreDist(ps, minPts)
    Prim.denseMst(ps.n, (i, j) => math.max(math.max(cd(i), cd(j)), ps.dist(i, j)))
  }

  /** Brute-force DBSCAN* labels (§2.1): clusters are the connected
    * components of the ε-graph over core points; everything else is noise.
    * Returned label ids are normalized by lowest member id.
    */
  def bruteDbscanStar(ps: PointSet, minPts: Int, eps: Double): Array[Int] = {
    val n = ps.n
    val core = Array.tabulate(n) { i =>
      (0 until n).count(j => ps.dist(i, j) <= eps) >= minPts
    }
    val labels = Array.fill(n)(-1)
    var next = 0
    var i = 0
    while (i < n) {
      if (core(i) && labels(i) < 0) {
        val stack = scala.collection.mutable.Stack(i)
        labels(i) = next
        while (stack.nonEmpty) {
          val u = stack.pop()
          var j = 0
          while (j < n) {
            if (core(j) && labels(j) < 0 && ps.dist(u, j) <= eps) {
              labels(j) = next
              stack.push(j)
            }
            j += 1
          }
        }
        next += 1
      }
      i += 1
    }
    labels
  }

  /** True iff two labelings are identical partitions (incl. the noise set). */
  def samePartition(a: Array[Int], b: Array[Int]): Boolean = {
    require(a.length == b.length)
    val mapAB = scala.collection.mutable.HashMap.empty[Int, Int]
    val mapBA = scala.collection.mutable.HashMap.empty[Int, Int]
    a.indices.forall { i =>
      if ((a(i) < 0) != (b(i) < 0)) false
      else if (a(i) < 0) true
      else mapAB.getOrElseUpdate(a(i), b(i)) == b(i) &&
        mapBA.getOrElseUpdate(b(i), a(i)) == a(i)
    }
  }

  /** Sum of edge weights, for MST-weight equality up to float tolerance. */
  def weightOf(edges: Iterable[Edge]): Double = edges.iterator.map(_.w).sum

  /** Canonical form of an edge set for exact comparison. */
  def canonicalEdges(edges: Iterable[Edge]): Set[(Int, Int)] =
    edges.iterator.map(e => (math.min(e.u, e.v), math.max(e.u, e.v))).toSet

  def assertSameWeight(a: Iterable[Edge], b: Iterable[Edge], tol: Double = 1e-7): Unit = {
    val wa = weightOf(a)
    val wb = weightOf(b)
    assert(math.abs(wa - wb) <= tol * math.max(1.0, math.abs(wa)),
      s"MST weights differ: $wa vs $wb")
  }
}
