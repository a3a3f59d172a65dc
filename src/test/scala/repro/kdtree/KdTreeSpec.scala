package repro.kdtree

import java.util.Arrays

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.geometry.{Generators, PointSet}
import repro.mst.UnionFind
import repro.par.{ForkJoinScheme, SeqScheme}
import repro.wspd.Wspd

class KdTreeSpec extends AnyFunSuite {

  private def checkInvariants(t: KdTree): Unit = {
    val n = t.points.n
    // Root covers everything; perm is a permutation.
    assert(t.lo(t.root) == 0 && t.hi(t.root) == n)
    assert(t.perm.sorted.sameElements(Array.tabulate(n)(identity)))
    for (a <- 0 until t.nNodes) {
      assert(t.lo(a) < t.hi(a), s"empty node $a")
      if (!t.isLeaf(a)) {
        val l = t.left(a); val r = t.right(a)
        // Children partition the parent's range contiguously.
        assert(t.lo(l) == t.lo(a) && t.hi(l) == t.lo(r) && t.hi(r) == t.hi(a))
        // Pre-order layout: children have larger ids.
        assert(l > a && r > a)
      }
      // Bounding box contains every point of the node.
      var i = t.lo(a)
      while (i < t.hi(a)) {
        val p = t.perm(i)
        for (k <- 0 until t.dim) {
          assert(t.points(p, k) >= t.boxMin(a * t.dim + k) - 1e-12)
          assert(t.points(p, k) <= t.boxMax(a * t.dim + k) + 1e-12)
        }
        i += 1
      }
    }
  }

  test("build invariants hold on random data, several dims") {
    for (d <- Seq(1, 2, 3, 5, 7); seed <- Seq(1L, 2L)) {
      checkInvariants(KdTree.build(TestUtil.randomPoints(200, d, seed)))
    }
  }

  test("build invariants hold on clustered and duplicated data") {
    checkInvariants(KdTree.build(TestUtil.clusteredPoints(300, 3, 5)))
    checkInvariants(KdTree.build(TestUtil.pointsWithDuplicates(200, 2, 6)))
  }

  test("leafSize=1 gives exactly 2n-1 nodes and singleton leaves") {
    val t = KdTree.build(TestUtil.randomPoints(257, 2, 7))
    assert(t.nNodes == 2 * 257 - 1)
    for (a <- 0 until t.nNodes if t.isLeaf(a)) assert(t.size(a) == 1)
  }

  test("build handles all-identical points") {
    val ps = repro.geometry.PointSet.fromRows(Seq.fill(16)(Array(3.0, 4.0)))
    val t = KdTree.build(ps)
    checkInvariants(t)
    assert(t.nNodes == 31)
    assert(t.radius(t.root) == 0.0)
  }

  test("larger leafSize is honored") {
    val t = KdTree.build(TestUtil.randomPoints(500, 3, 8), leafSize = 16)
    for (a <- 0 until t.nNodes if t.isLeaf(a)) assert(t.size(a) <= 16)
  }

  test("radius and diameter are consistent and bound pairwise distances") {
    val t = KdTree.build(TestUtil.randomPoints(100, 3, 9))
    for (a <- 0 until t.nNodes) {
      assert(t.diameter(a) == 2 * t.radius(a))
      val pts = t.pointsUnder(a)
      for (i <- pts; j <- pts)
        assert(t.points.dist(i, j) <= t.diameter(a) + 1e-9)
    }
  }

  test("sphereDist lower-bounds and sphereMaxDist upper-bounds cross distances") {
    val t = KdTree.build(TestUtil.randomPoints(120, 2, 10))
    val rnd = new java.util.Random(0)
    for (_ <- 0 until 200) {
      val a = rnd.nextInt(t.nNodes)
      val b = rnd.nextInt(t.nNodes)
      val cd = t.centerDist(a, b)
      val lo = t.sphereDist(a, b, cd)
      val hi = t.sphereMaxDist(a, b, cd)
      for (i <- t.pointsUnder(a); j <- t.pointsUnder(b)) {
        val d = t.points.dist(i, j)
        assert(d >= lo - 1e-9, s"d=$d below sphereDist=$lo")
        assert(d <= hi + 1e-9, s"d=$d above sphereMaxDist=$hi")
      }
    }
  }

  test("stored centers and radii equal the box formulas bit for bit") {
    val sets = Seq(
      "uniform 2D" -> TestUtil.randomPoints(300, 2, seed = 15),
      "uniform 7D" -> TestUtil.randomPoints(300, 7, seed = 16),
      "all duplicates" -> repro.geometry.PointSet.fromRows(Seq.fill(40)(Array(1.5, -2.0, 7.0))),
      "n = 1" -> repro.geometry.PointSet.fromRows(Seq(Array(0.25, 4.0))))
    for ((name, ps) <- sets; leafSize <- Seq(1, 8)) {
      val t = KdTree.build(ps, leafSize)
      val at = s"$name leaf=$leafSize"
      def boxCenter(a: Int, k: Int): Double = 0.5 * (t.boxMin(a * t.dim + k) + t.boxMax(a * t.dim + k))
      def boxRadius(a: Int): Double =
        0.5 * math.sqrt((0 until t.dim).foldLeft(0.0) { (s, k) =>
          val w = t.boxMax(a * t.dim + k) - t.boxMin(a * t.dim + k)
          s + w * w
        })
      for (a <- 0 until t.nNodes) {
        assert(t.radius(a) == boxRadius(a), s"$at node $a")
        for (k <- 0 until t.dim) assert(t.center(a, k) == boxCenter(a, k), s"$at node $a dim $k")
      }
      for (a <- 0 until t.nNodes; b <- 0 until t.nNodes by 7) {
        val cd = math.sqrt((0 until t.dim).foldLeft(0.0) { (s, k) =>
          val d = boxCenter(a, k) - boxCenter(b, k)
          s + d * d
        })
        assert(t.centerDist(a, b) == cd, s"$at pair ($a,$b)")
        assert(t.sphereDist(a, b, cd) == math.max(0.0, cd - boxRadius(a) - boxRadius(b)), s"$at pair ($a,$b)")
        assert(t.sphereMaxDist(a, b, cd) == cd + boxRadius(a) + boxRadius(b), s"$at pair ($a,$b)")
      }
    }
  }

  test("boxDist2 is zero inside the box and positive outside") {
    val t = KdTree.build(TestUtil.randomPoints(50, 2, 11))
    val inside = Array(t.center(t.root, 0), t.center(t.root, 1))
    assert(t.boxDist2(t.root, inside) == 0.0)
    val outside = Array(t.boxMax(0) + 5.0, t.boxMax(1) + 5.0)
    assert(t.boxDist2(t.root, outside) > 0.0)
  }

  test("kNearestDistances matches brute force for various k") {
    for (d <- Seq(2, 3, 5); leafSize <- Seq(1, 8)) {
      val ps = TestUtil.randomPoints(150, d, seed = 20 + d)
      val t = KdTree.build(ps, leafSize)
      for (k <- Seq(1, 2, 10, 50); qi <- 0 until 30) {
        val got = t.kNearestDistances(qi, k)
        val want = (0 until ps.n).map(j => ps.dist(qi, j)).sorted.take(k)
        assert(got.length == k)
        got.zip(want).foreach { case (g, w) =>
          assert(math.abs(g - w) < 1e-9, s"k=$k qi=$qi got=$g want=$w")
        }
      }
    }
  }

  test("kNearestDistances on clustered/duplicated data matches brute force") {
    val ps = TestUtil.pointsWithDuplicates(120, 3, seed = 33)
    val t = KdTree.build(ps)
    for (qi <- 0 until ps.n by 7; k <- Seq(1, 5, 17)) {
      val got = t.kNearestDistances(qi, k)
      val want = (0 until ps.n).map(j => ps.dist(qi, j)).sorted.take(k)
      got.zip(want).foreach { case (g, w) => assert(math.abs(g - w) < 1e-9) }
    }
  }

  test("k=1 distance is always zero (self included)") {
    val ps = TestUtil.randomPoints(60, 2, 12)
    val t = KdTree.build(ps)
    (0 until ps.n).foreach(i => assert(t.kNearestDistances(i, 1).head == 0.0))
  }

  test("kNearestDistances rejects k larger than n") {
    val t = KdTree.build(TestUtil.randomPoints(10, 2, 13))
    intercept[IllegalArgumentException](t.kNearestDistances(0, 11))
    val e = intercept[IllegalArgumentException](t.kthNearestDistance(0, 11, new Array[Double](11)))
    assert(e.getMessage.contains("requested 11 neighbors of 10 points"))
  }

  test("kthNearestDistance equals kNearestDistances(k).last bit for bit") {
    val sets = Seq(
      "uniform" -> TestUtil.randomPoints(150, 3, seed = 23),
      "duplicates" -> TestUtil.pointsWithDuplicates(120, 3, seed = 33))
    for ((name, ps) <- sets; leafSize <- Seq(1, 8)) {
      val t = KdTree.build(ps, leafSize)
      val heap = new Array[Double](ps.n) // reused: stale scratch must not leak
      for (k <- Seq(1, 5, ps.n); qi <- 0 until ps.n) {
        val got = t.kthNearestDistance(qi, k, heap)
        assert(got == t.kNearestDistances(qi, k).last, s"$name leaf=$leafSize k=$k qi=$qi")
      }
    }
  }

  test("kthNearestDistance equals the brute-force k-th distance across the bucket boundary") {
    for (n <- Seq(15, 16, 17, 33); leafSize <- Seq(1, 8, 32)) {
      val sets = Seq(
        "uniform" -> TestUtil.randomPoints(n, 2, seed = 40L + n),
        "grid" -> new repro.geometry.PointSet(TestUtil.integerGrid(6, 2).coords.take(n * 2), 2))
      for ((name, ps) <- sets) {
        val t = KdTree.build(ps, leafSize)
        val heap = new Array[Double](n)
        for (k <- Seq(1, 5, n); qi <- 0 until n) {
          val want = (0 until n).map(j => ps.dist(qi, j)).sorted.apply(k - 1)
          assert(t.kthNearestDistance(qi, k, heap) == want, s"$name n=$n leaf=$leafSize k=$k qi=$qi")
        }
      }
    }
  }

  test("coreDistStats computes per-node min/max core distance") {
    val ps = TestUtil.randomPoints(80, 2, 14)
    val t = KdTree.build(ps)
    val cd = TestUtil.bruteCoreDist(ps, minPts = 5)
    val (mn, mx) = KdTree.coreDistStats(t, cd)
    for (a <- 0 until t.nNodes) {
      val vals = t.pointsUnder(a).map(cd)
      assert(mn(a) == vals.min)
      assert(mx(a) == vals.max)
    }
  }

  private val grain = KdTree.ForkGrain

  /** Inputs for the forked build, every one but the small sizes holding at
    * least 4 × [[KdTree.ForkGrain]] points, so forks happen several levels
    * deep.
    */
  private def forkInputs: Seq[(String, PointSet)] = {
    val big = 5 * grain
    val uniform2 = Generators.uniformFill(big, 2, 3)
    Seq(
      "uniform 2D" -> uniform2,
      "uniform 7D" -> Generators.uniformFill(big, 7, 4),
      "SS-varden 3D" -> Generators.ssVarden(big, 3, 5),
      "integer grid" -> TestUtil.integerGrid(150, 2),
      "all duplicates" -> PointSet.fromRows(Seq.fill(big)(Array(3.0, 4.0))),
      "collinear line" -> PointSet.fromRows(Seq.tabulate(big)(i => Array(0.5 * i, 2.0 * i - 7.0))),
      "1e9 offset" -> new PointSet(uniform2.coords.map(_ + 1e9), 2),
    ) ++ Seq(1, 2, grain, grain + 1).map(n => s"n=$n" -> Generators.uniformFill(n, 2, 6))
  }

  /** Asserts every array of `b` and its node count equal `a`'s, bit for bit. */
  private def assertSameTree(a: KdTree, b: KdTree, at: String): Unit = {
    assert(a.nNodes == b.nNodes, at)
    for ((name, x, y) <- Seq(("perm", a.perm, b.perm), ("lo", a.lo, b.lo), ("hi", a.hi, b.hi),
        ("left", a.left, b.left), ("right", a.right, b.right)))
      assert(Arrays.equals(x, y), s"$at: $name")
    assert(Arrays.equals(a.boxMin, b.boxMin) && Arrays.equals(a.boxMax, b.boxMax), s"$at: boxes")
    def centers(t: KdTree) = Array.tabulate(t.nNodes * t.dim)(i => t.center(i / t.dim, i % t.dim))
    def radii(t: KdTree) = Array.tabulate(t.nNodes)(t.radius)
    assert(Arrays.equals(centers(a), centers(b)), s"$at: centers")
    assert(Arrays.equals(radii(a), radii(b)), s"$at: radii")
  }

  test("the forked build equals the inline build bit for bit") {
    for ((name, ps) <- forkInputs; leafSize <- Seq(1, 8)) {
      val at = s"$name, leafSize=$leafSize"
      val inline = KdTree.build(ps, leafSize, SeqScheme)
      val forked = KdTree.build(ps, leafSize, ForkJoinScheme)
      assertSameTree(inline, forked, at)
      assertSameTree(inline, KdTree.build(ps, leafSize), s"$at, default scheme")
      if (leafSize == 1) assert(forked.nNodes == 2 * ps.n - 1, at)
      if (ps.n <= 2 * grain) checkInvariants(forked)
    }
  }

  test("the forked node passes equal brute force under every union-find state") {
    val ps = Generators.uniformFill(5 * grain, 2, 7)
    val cd = Array.tabulate(ps.n)(i => ((i * 7919L) % 1009).toDouble)
    val rnd = new java.util.Random(8)
    val states: Seq[(String, UnionFind => Unit)] = Seq(
      "fresh" -> (_ => ()),
      "first third chained" -> (uf => (0 until ps.n / 3).foreach(i => uf.union(i, i + 1))),
      "fully joined" -> (uf => (0 until ps.n - 1).foreach(i => uf.union(i, i + 1))),
      "random unions" -> (uf => (0 until ps.n).foreach(_ => uf.union(rnd.nextInt(ps.n), rnd.nextInt(ps.n)))),
    )
    for (leafSize <- Seq(1, 8)) {
      val t = KdTree.build(ps, leafSize)
      val under = Array.tabulate(t.nNodes)(t.pointsUnder)
      for (par <- Seq(SeqScheme, ForkJoinScheme)) {
        val at = s"leafSize=$leafSize ${par.name}"
        val (mn, mx) = KdTree.coreDistStats(t, cd, par)
        for (a <- 0 until t.nNodes) {
          assert(mn(a) == under(a).map(cd).min && mx(a) == under(a).map(cd).max, s"$at node $a")
        }
        for ((state, join) <- states) {
          val uf = new UnionFind(ps.n)
          join(uf)
          val snap = uf.snapshot()
          val comp = Wspd.nodeComponents(t, snap, par)
          for (a <- 0 until t.nNodes) {
            val roots = under(a).map(snap).distinct
            assert(comp(a) == (if (roots.length == 1) roots.head else -1), s"$at $state node $a")
          }
        }
      }
    }
  }

  test("build rejects a leafSize below 1, naming it") {
    val e = intercept[IllegalArgumentException](
      KdTree.build(TestUtil.randomPoints(10, 2, 1), leafSize = 0))
    assert(e.getMessage.contains("leafSize") && e.getMessage.contains("0"), e.getMessage)
  }
}
