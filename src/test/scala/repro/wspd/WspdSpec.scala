package repro.wspd

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.kdtree.KdTree
import repro.mst.UnionFind
import repro.par.{ForkJoinScheme, ParScheme, SeqScheme}

/** The one-thread run at the same width: asks for `width` tasks, so the
  * WSPD frontier and the batch sort's tie-run slices are cut as under a
  * parallel scheme of that width, but runs every loop, fork and sort on
  * the calling thread, as [[SeqScheme]] does.
  */
final case class WideSeqScheme(width: Int) extends ParScheme {
  override def name: String = s"seq-wide[$width]"

  override def targetTasks: Int = width

  override def forRange(n: Int)(body: Int => Unit): Unit = SeqScheme.forRange(n)(body)

  override def join2[A, B](a: => A, b: => B): (A, B) = SeqScheme.join2(a, b)

  override def sort(keys: Array[Long]): Unit = SeqScheme.sort(keys)
}

class WspdSpec extends AnyFunSuite {

  private def euclidCtx(n: Int, dim: Int, seed: Long): Ctx =
    Ctx.euclidean(KdTree.build(TestUtil.randomPoints(n, dim, seed)))

  private def mutualCtx(n: Int, dim: Int, seed: Long, minPts: Int): Ctx = {
    val ps = TestUtil.randomPoints(n, dim, seed)
    Ctx.mutualReach(KdTree.build(ps), TestUtil.bruteCoreDist(ps, minPts))
  }

  /** Checks WSPD realization properties (§2.3): disjoint node pairs whose
    * interaction products exactly cover all unordered point pairs.
    */
  private def checkRealization(c: Ctx, pairs: IndexedSeq[(Int, Int)]): Unit = {
    val t = c.tree
    val n = t.points.n
    val counts = Array.ofDim[Int](n, n)
    pairs.foreach { case (a, b) =>
      val pa = t.pointsUnder(a)
      val pb = t.pointsUnder(b)
      assert(pa.toSet.intersect(pb.toSet).isEmpty, "pair sets must be disjoint")
      for (i <- pa; j <- pb) {
        val (x, y) = (math.min(i, j), math.max(i, j))
        counts(x)(y) += 1
      }
    }
    for (i <- 0 until n; j <- i + 1 until n) {
      assert(counts(i)(j) == 1, s"point pair ($i,$j) covered ${counts(i)(j)} times")
    }
  }

  test("geometric WSPD is a valid realization of P x P") {
    for ((dim, seed) <- Seq((2, 1L), (3, 2L), (5, 3L))) {
      val c = euclidCtx(80, dim, seed)
      checkRealization(c, Wspd.allPairs(c, GeometricSep(2.0), SeqScheme))
    }
  }

  test("geometric WSPD pairs are actually well-separated (s=2)") {
    val c = euclidCtx(100, 2, 4)
    val sep = GeometricSep(2.0)
    val pairs = Wspd.allPairs(c, sep, SeqScheme)
    pairs.foreach { case (a, b) =>
      val cd = c.tree.centerDist(a, b)
      assert(sep.wellSeparated(c, a, b, cd))
      assert(c.tree.sphereDist(a, b, cd) >=
        2.0 * math.max(c.tree.radius(a), c.tree.radius(b)) - 1e-12)
    }
  }

  test("WSPD size is linear in n for uniform low-dimensional data") {
    for (n <- Seq(100, 200, 400)) {
      val c = euclidCtx(n, 2, 5)
      val pairs = Wspd.allPairs(c, GeometricSep(2.0), SeqScheme)
      assert(pairs.size < 60 * n, s"n=$n produced ${pairs.size} pairs")
    }
  }

  test("WSPD handles duplicate points") {
    val ps = TestUtil.pointsWithDuplicates(60, 2, 6)
    val c = Ctx.euclidean(KdTree.build(ps))
    checkRealization(c, Wspd.allPairs(c, GeometricSep(2.0), SeqScheme))
  }

  test("higher separation constant produces at least as many pairs") {
    val c = euclidCtx(150, 2, 7)
    val s2 = Wspd.allPairs(c, GeometricSep(2.0), SeqScheme).size
    val s4 = Wspd.allPairs(c, GeometricSep(4.0), SeqScheme).size
    assert(s4 >= s2)
  }

  test("new HDBSCAN* well-separation yields a valid realization with fewer pairs") {
    for (minPts <- Seq(5, 10)) {
      val c = mutualCtx(100, 2, 8, minPts)
      val geo = Wspd.allPairs(c, GeometricSep(2.0), SeqScheme)
      val mix = Wspd.allPairs(c, MutualUnreachableSep, SeqScheme)
      checkRealization(c, mix)
      assert(mix.size <= geo.size,
        s"disjunction must terminate no later: ${mix.size} vs ${geo.size}")
    }
  }

  test("mutually-unreachable pairs satisfy the definition") {
    val c = mutualCtx(80, 3, 9, 10)
    val pairs = Wspd.allPairs(c, MutualUnreachableSep, SeqScheme)
    val geom = GeometricSep(2.0)
    pairs.foreach { case (a, b) =>
      val cd = c.tree.centerDist(a, b)
      assert(geom.wellSeparated(c, a, b, cd) ||
        MutualUnreachableSep.mutuallyUnreachable(c, a, b, cd))
    }
  }

  test("nodeComponents marks pure subtrees with their component root") {
    val ps = TestUtil.randomPoints(64, 2, 10)
    val t = KdTree.build(ps)
    val uf = new UnionFind(ps.n)
    // Join a few clumps.
    (0 until 20).foreach(i => uf.union(i, (i + 1) % 20))
    val snap = uf.snapshot()
    val comp = Wspd.nodeComponents(t, snap)
    for (a <- 0 until t.nNodes) {
      val comps = t.pointsUnder(a).map(snap).distinct
      if (comps.length == 1) assert(comp(a) == comps.head)
      else assert(comp(a) == -1)
    }
  }

  test("getRho equals the brute-force minimum over large unconnected pairs") {
    val c = euclidCtx(90, 2, 11)
    val uf = new UnionFind(90)
    val comp = Wspd.nodeComponents(c.tree, uf.snapshot())
    val all = Wspd.allPairs(c, GeometricSep(2.0), SeqScheme)
    for (beta <- Seq(2L, 8L, 64L)) {
      val brute = all
        .filter { case (a, b) => c.tree.size(a).toLong + c.tree.size(b) > beta }
        .map { case (a, b) => EuclidMetric.lb(c, a, b, c.tree.centerDist(a, b)) }
      val want = if (brute.isEmpty) Double.PositiveInfinity else brute.min
      val got = Wspd.getRho(c, GeometricSep(2.0), EuclidMetric, beta, comp, SeqScheme)
      assert(math.abs(got - want) < 1e-12 || (got.isPosInfinity && want.isPosInfinity),
        s"beta=$beta got=$got want=$want")
    }
  }

  test("getPairs over the full range returns one BCCP edge per WSPD pair") {
    val c = euclidCtx(70, 3, 12)
    val uf = new UnionFind(70)
    val snap = uf.snapshot()
    val comp = Wspd.nodeComponents(c.tree, snap)
    val all = Wspd.allPairs(c, GeometricSep(2.0), SeqScheme)
    val edges = Wspd.getPairs(c, GeometricSep(2.0), EuclidMetric,
      0.0, Double.PositiveInfinity, comp, snap, SeqScheme).edges.toEdges
    assert(edges.size == all.size)
    // Nothing is pruned over the full range, so every width computes one
    // BCCP per pair.
    for (par <- SeqScheme +: wideSchemes)
      assert(Wspd.getPairs(c, GeometricSep(2.0), EuclidMetric,
        0.0, Double.PositiveInfinity, comp, snap, par).bccps == all.size, par.name)
    val wantWeights = all.map { case (a, b) => EuclidMetric.bccp(c, a, b).w }.sorted
    assert(edges.map(_.w).sorted.zip(wantWeights).forall { case (a, b) => math.abs(a - b) < 1e-12 })
  }

  test("getPairs respects the [rhoLo, rhoHi) window") {
    val c = euclidCtx(70, 2, 13)
    val uf = new UnionFind(70)
    val snap = uf.snapshot()
    val comp = Wspd.nodeComponents(c.tree, snap)
    val all = Wspd.getPairs(c, GeometricSep(2.0), EuclidMetric,
      0.0, Double.PositiveInfinity, comp, snap, SeqScheme).edges.toEdges
    val ws = all.map(_.w).sorted
    val lo = ws(ws.length / 4)
    val hi = ws(3 * ws.length / 4)
    val window = Wspd.getPairs(c, GeometricSep(2.0), EuclidMetric,
      lo, hi, comp, snap, SeqScheme).edges.toEdges
    assert(window.forall(e => e.w >= lo && e.w < hi))
    assert(window.size == ws.count(w => w >= lo && w < hi))
  }

  test("getPairs skips pairs already connected in the union-find") {
    val ps = TestUtil.randomPoints(40, 2, 14)
    val c = Ctx.euclidean(KdTree.build(ps))
    val uf = new UnionFind(ps.n)
    (0 until ps.n - 1).foreach(i => uf.union(i, i + 1)) // everything connected
    val snap = uf.snapshot()
    val comp = Wspd.nodeComponents(c.tree, snap)
    val edges = Wspd.getPairs(c, GeometricSep(2.0), EuclidMetric,
      0.0, Double.PositiveInfinity, comp, snap, SeqScheme).edges.toEdges
    assert(edges.isEmpty)
  }

  private val wideSchemes = Seq(2, 7, 64, 100000).map(WideSeqScheme)

  /** n uniform 2D points whose first third is chained into one component,
    * with the union-find snapshot and its node components.
    */
  private def partlyJoined(n: Int): (Ctx, Array[Int], Array[Int]) = {
    val c = euclidCtx(n, 2, 16L + n)
    val uf = new UnionFind(n)
    (0 until n / 3).foreach(i => uf.union(i, i + 1))
    val snap = uf.snapshot()
    (c, snap, Wspd.nodeComponents(c.tree, snap))
  }

  test("allPairs at every frontier width equals the sequential WSPD") {
    for (n <- Seq(1, 2, 90, 400)) {
      val (c, _, _) = partlyJoined(n)
      val want = Wspd.allPairs(c, GeometricSep(2.0), SeqScheme).sorted
      for (par <- wideSchemes)
        assert(Wspd.allPairs(c, GeometricSep(2.0), par).sorted == want, s"n=$n ${par.name}")
    }
  }

  test("getPairs at every frontier width equals the sequential round") {
    for (n <- Seq(1, 2, 90, 400)) {
      val (c, snap, comp) = partlyJoined(n)
      // Edges only: the sphere lb is not monotone under refinement, so a
      // wide frontier can emit descendants of a pair the sequential run
      // pruned, and count more BCCPs; their edges fall outside the window.
      def round(lo: Double, hi: Double, par: ParScheme) =
        Wspd.getPairs(c, GeometricSep(2.0), EuclidMetric, lo, hi, comp, snap, par).edges.toEdges.sorted
      val ws = round(0.0, Double.PositiveInfinity, SeqScheme).map(_.w)
      val partial = if (ws.isEmpty) (0.0, 1.0) else (ws(ws.length / 4), ws(3 * ws.length / 4))
      for ((lo, hi) <- Seq((0.0, Double.PositiveInfinity), partial)) {
        val want = round(lo, hi, SeqScheme)
        for (par <- wideSchemes)
          assert(round(lo, hi, par) == want, s"n=$n [$lo, $hi) ${par.name}")
      }
    }
  }

  test("getPairs drops an in-window edge whose endpoints share a snapshot root, and counts it") {
    val rnd = new java.util.Random(17)
    for (n <- Seq(90, 400); metricCtx <- Seq("euclid", "mutual")) {
      val c = if (metricCtx == "euclid") euclidCtx(n, 2, 16L + n) else mutualCtx(n, 2, 16L + n, 5)
      val (sep, metric) =
        if (metricCtx == "euclid") (GeometricSep(2.0), EuclidMetric)
        else (MutualUnreachableSep, MutualReachMetric)
      val uf = new UnionFind(n)
      (0 until n / 3).foreach(i => uf.union(i, i + 1))
      (0 until n / 4).foreach(_ => uf.union(rnd.nextInt(n), rnd.nextInt(n)))
      val snap = uf.snapshot()
      val comp = Wspd.nodeComponents(c.tree, snap)
      val pairs = Wspd.allPairs(c, sep, SeqScheme)
      val bccps = pairs.map { case (a, b) => metric.bccp(c, a, b) }
      val ws = bccps.map(_.w).sorted
      for ((lo, hi) <- Seq((0.0, Double.PositiveInfinity), (ws(ws.length / 4), ws(3 * ws.length / 4)))) {
        val inWindow = pairs.zip(bccps).filter { case (_, e) => e.w >= lo && e.w < hi }
        val want = inWindow.map(_._2).filter(e => snap(e.u) != snap(e.v)).sorted
        // The edges counted: those of every in-window pair but the ones
        // inside one pure node, which are pruned before their BCCP.
        val counted = inWindow.count { case ((a, b), _) => !(comp(a) >= 0 && comp(a) == comp(b)) }
        assert(want.size < counted, s"n=$n $metricCtx [$lo, $hi): the state drops nothing")
        for (par <- SeqScheme +: ForkJoinScheme +: wideSchemes) {
          val at = s"n=$n $metricCtx [$lo, $hi) ${par.name}"
          val round = Wspd.getPairs(c, sep, metric, lo, hi, comp, snap, par)
          val got = round.edges.toEdges
          assert(got.forall(e => snap(e.u) != snap(e.v)), at)
          assert(got.sorted == want, at)
          assert(round.inWindow == counted, at)
        }
      }
    }
  }

  test("getRho at every frontier width is the lb of a large unconnected pair and bounds their BCCPs") {
    // Not equal across widths: the sphere lb is not monotone under
    // refinement, so the `lb >= rho` prune depends on the visit order.
    for (n <- Seq(1, 2, 90, 400); beta <- Seq(2L, 8L, 64L)) {
      val (c, snap, comp) = partlyJoined(n)
      val large = Wspd.allPairs(c, GeometricSep(2.0), SeqScheme).filter { case (a, b) =>
        c.tree.size(a).toLong + c.tree.size(b) > beta && !(comp(a) >= 0 && comp(a) == comp(b))
      }
      for (par <- SeqScheme +: wideSchemes) {
        val rho = Wspd.getRho(c, GeometricSep(2.0), EuclidMetric, beta, comp, par)
        val at = s"n=$n beta=$beta ${par.name} rho=$rho"
        if (large.isEmpty) assert(rho.isPosInfinity, at)
        else {
          assert(large.exists { case (a, b) => math.abs(EuclidMetric.lb(c, a, b, c.tree.centerDist(a, b)) - rho) < 1e-9 }, at)
          large.foreach { case (a, b) => assert(rho <= EuclidMetric.bccp(c, a, b).w + 1e-9, at) }
        }
      }
    }
  }
}

class MetricSpec extends AnyFunSuite {

  test("EuclidMetric.bccp matches brute force over random node pairs") {
    val ps = TestUtil.randomPoints(100, 3, 1)
    val c = Ctx.euclidean(KdTree.build(ps))
    val rnd = new java.util.Random(1)
    for (_ <- 0 until 100) {
      val a = rnd.nextInt(c.tree.nNodes)
      val b = rnd.nextInt(c.tree.nNodes)
      val pa = c.tree.pointsUnder(a).toSet
      val pb = c.tree.pointsUnder(b).toSet
      if (pa.intersect(pb).isEmpty) {
        val got = EuclidMetric.bccp(c, a, b)
        val want = (for (i <- pa; j <- pb) yield ps.dist(i, j)).min
        assert(math.abs(got.w - want) < 1e-12)
        assert(pa.contains(got.u) && pb.contains(got.v))
        assert(math.abs(ps.dist(got.u, got.v) - got.w) < 1e-12)
      }
    }
  }

  test("MutualReachMetric.bccp matches brute force BCCP*") {
    val ps = TestUtil.randomPoints(90, 2, 2)
    val cd = TestUtil.bruteCoreDist(ps, 5)
    val c = Ctx.mutualReach(KdTree.build(ps), cd)
    def dm(i: Int, j: Int): Double = math.max(math.max(cd(i), cd(j)), ps.dist(i, j))
    val rnd = new java.util.Random(2)
    for (_ <- 0 until 100) {
      val a = rnd.nextInt(c.tree.nNodes)
      val b = rnd.nextInt(c.tree.nNodes)
      val pa = c.tree.pointsUnder(a).toSet
      val pb = c.tree.pointsUnder(b).toSet
      if (pa.intersect(pb).isEmpty) {
        val got = MutualReachMetric.bccp(c, a, b)
        val want = (for (i <- pa; j <- pb) yield dm(i, j)).min
        assert(math.abs(got.w - want) < 1e-12)
        assert(math.abs(dm(got.u, got.v) - got.w) < 1e-12)
      }
    }
  }

  test("metric lb/ub bracket the exact BCCP for both metrics") {
    val ps = TestUtil.randomPoints(80, 3, 3)
    val cd = TestUtil.bruteCoreDist(ps, 8)
    val ce = Ctx.euclidean(KdTree.build(ps))
    val cm = Ctx.mutualReach(KdTree.build(ps), cd)
    val rnd = new java.util.Random(3)
    for (_ <- 0 until 150) {
      for ((c, m) <- Seq((ce, EuclidMetric: Metric), (cm, MutualReachMetric: Metric))) {
        val a = rnd.nextInt(c.tree.nNodes)
        val b = rnd.nextInt(c.tree.nNodes)
        if (c.tree.pointsUnder(a).toSet.intersect(c.tree.pointsUnder(b).toSet).isEmpty) {
          val e = m.bccp(c, a, b)
          val cdist = c.tree.centerDist(a, b)
          assert(m.lb(c, a, b, cdist) <= e.w + 1e-9)
          assert(m.ub(c, a, b, cdist) >= e.w - 1e-9)
        }
      }
    }
  }

  test("lb/ub bracket every cross-pair weight (the pruning invariant)") {
    // MemoGFK pruning relies on lb(A,B) lower-bounding and ub(A,B)
    // upper-bounding the weight of EVERY cross pair (hence of every
    // descendant pair's BCCP), not on the bounds being monotone.
    val ps = TestUtil.randomPoints(60, 2, 4)
    val cd = TestUtil.bruteCoreDist(ps, 5)
    val ce = Ctx.euclidean(KdTree.build(ps))
    val cm = Ctx.mutualReach(KdTree.build(ps), cd)
    def dm(i: Int, j: Int): Double = math.max(math.max(cd(i), cd(j)), ps.dist(i, j))
    val rnd = new java.util.Random(4)
    for (_ <- 0 until 150) {
      for ((c, m, wf) <- Seq(
          (ce, EuclidMetric: Metric, (i: Int, j: Int) => ps.dist(i, j)),
          (cm, MutualReachMetric: Metric, dm _))) {
        val a = rnd.nextInt(c.tree.nNodes)
        val b = rnd.nextInt(c.tree.nNodes)
        val pa = c.tree.pointsUnder(a)
        val pb = c.tree.pointsUnder(b)
        if (pa.toSet.intersect(pb.toSet).isEmpty) {
          val cdist = c.tree.centerDist(a, b)
          val lo = m.lb(c, a, b, cdist)
          val hi = m.ub(c, a, b, cdist)
          for (i <- pa; j <- pb) {
            val w = wf(i, j)
            assert(w >= lo - 1e-9 && w <= hi + 1e-9, s"weight $w outside [$lo,$hi]")
          }
        }
      }
    }
  }
}
