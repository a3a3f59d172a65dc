package repro.mst

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.par.{ForkJoinScheme, ParScheme, SeqScheme}
import repro.wspd.WideSeqScheme

/** The schemes the batch sort is checked under: one thread, the pool, and
  * one thread cut into as many tie-run slices as a 16-task pool run.
  */
private object MstSpec {
  val schemes: Seq[ParScheme] = Seq(SeqScheme, ForkJoinScheme, WideSeqScheme(16))
}

/** `inner`, counting its `sort` calls. */
final class SortCounting(inner: ParScheme) extends ParScheme {
  var sorts = 0

  override def name: String = s"sort-counting[${inner.name}]"

  override def targetTasks: Int = inner.targetTasks

  override def forRange(n: Int)(body: Int => Unit): Unit = inner.forRange(n)(body)

  override def join2[A, B](a: => A, b: => B): (A, B) = inner.join2(a, b)

  override def sort(keys: Array[Long]): Unit = { sorts += 1; inner.sort(keys) }
}

class UnionFindSpec extends AnyFunSuite {

  test("fresh union-find has n components, all singletons") {
    val uf = new UnionFind(5)
    assert(uf.components == 5)
    for (i <- 0 until 5; j <- 0 until 5 if i != j) assert(!uf.connected(i, j))
  }

  test("union merges and reports prior connectivity") {
    val uf = new UnionFind(4)
    assert(uf.union(0, 1))
    assert(uf.union(2, 3))
    assert(!uf.connected(0, 2))
    assert(uf.union(1, 3))
    assert(uf.connected(0, 2))
    assert(!uf.union(0, 3)) // already joined
    assert(uf.components == 1)
  }

  test("find returns a consistent representative per component") {
    val uf = new UnionFind(10)
    (0 until 9).foreach(i => uf.union(i, i + 1))
    val r = uf.find(0)
    (0 until 10).foreach(i => assert(uf.find(i) == r))
  }

  test("snapshot reflects current components and is immutable") {
    val uf = new UnionFind(6)
    uf.union(0, 1); uf.union(2, 3)
    val snap = uf.snapshot()
    assert(snap(0) == snap(1) && snap(2) == snap(3) && snap(0) != snap(2))
    uf.union(1, 2)
    assert(snap(0) != snap(2), "snapshot must not see later unions")
    assert(uf.connected(0, 3))
  }

  test("random union sequence matches a naive component labeling") {
    val rnd = new java.util.Random(4)
    val n = 200
    val uf = new UnionFind(n)
    val naive = Array.tabulate(n)(identity)
    def naiveUnion(a: Int, b: Int): Unit = {
      val la = naive(a); val lb = naive(b)
      if (la != lb) naive.indices.foreach(i => if (naive(i) == lb) naive(i) = la)
    }
    for (_ <- 0 until 300) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      assert(uf.connected(a, b) == (naive(a) == naive(b)))
      uf.union(a, b); naiveUnion(a, b)
    }
    assert(uf.components == naive.distinct.length)
  }
}

class EdgeSpec extends AnyFunSuite {

  test("edge ordering is by weight then endpoints") {
    val e1 = Edge(3, 1, 1.0)
    val e2 = Edge(0, 2, 1.0)
    val e3 = Edge(9, 8, 0.5)
    assert(Seq(e1, e2, e3).sorted(Edge.ordering) == Seq(e3, e2, e1))
  }

  test("edge ordering is orientation-independent") {
    assert(Edge.ordering.compare(Edge(1, 3, 2.0), Edge(3, 1, 2.0)) == 0)
  }

  test("sortedIds orders edges exactly as the stable sorted(Edge.ordering)") {
    val rnd = new java.util.Random(17)
    def randomEdges(m: Int, weight: => Double): IndexedSeq[Edge] =
      IndexedSeq.fill(m)(Edge(rnd.nextInt(1000), rnd.nextInt(1000), weight))
    val byWeight = randomEdges(100000, rnd.nextDouble()).sorted(Edge.ordering)
    val batches = Seq(
      "empty" -> IndexedSeq.empty[Edge],
      "one" -> IndexedSeq(Edge(4, 2, 1.0)),
      "two, reversed" -> IndexedSeq(Edge(0, 1, 2.0), Edge(1, 2, 1.0)),
      "full tie, both orientations" -> IndexedSeq(Edge(3, 1, 1.0), Edge(1, 3, 1.0), Edge(0, 5, 1.0), Edge(1, 3, 1.0)),
      "0.0, -0.0 and +inf" -> IndexedSeq(
        Edge(0, 1, 0.0), Edge(2, 3, Double.PositiveInfinity), Edge(4, 5, -0.0),
        Edge(1, 0, -0.0), Edge(6, 7, 0.0), Edge(3, 2, Double.PositiveInfinity)),
      "all-equal weights" -> randomEdges(1000, 2.5),
      "integer-tied weights" -> randomEdges(100000, rnd.nextInt(5).toDouble),
      "already sorted" -> byWeight,
      "reverse sorted" -> byWeight.reverse,
      "random" -> randomEdges(100000, rnd.nextDouble()),
    ) ++ Seq(31, 32, 33, 63, 64, 65, 97).map(m => s"random $m" -> randomEdges(m, rnd.nextInt(8).toDouble)) ++
      // Sizes around the width of the kernel's packed id field.
      Seq(255, 256, 257, 65535, 65536, 65537).flatMap(m => Seq(
        s"random $m" -> randomEdges(m, rnd.nextDouble()),
        s"integer-tied $m" -> randomEdges(m, rnd.nextInt(4).toDouble))) ++
      // Weights 1 + j·ulp (and their negatives) differ only in their last
      // mantissa bits, so many share their key bits above the id field.
      Seq(257, 65537).flatMap(m => Seq(3, 1000, 1 << 20).flatMap { spread =>
        def w = 1.0 + rnd.nextInt(spread) * math.ulp(1.0)
        Seq(s"1 + j·ulp, $m, j < $spread" -> randomEdges(m, w),
          s"±(1 + j·ulp), $m, j < $spread" -> randomEdges(m, if (rnd.nextBoolean()) w else -w))
      }) :+
      ("200K all-equal" -> randomEdges(200000, 0.75))
    for ((name, es) <- batches; par <- MstSpec.schemes) {
      val ids = EdgeBatch.of(es).sortedIds(par)
      assert(ids.toSeq.map(es) == es.sorted(Edge.ordering), s"$name, ${par.name}")
      // Equal edges are indistinguishable above, so check the ids keep input order too.
      assert(ids.toSeq == es.indices.sortBy(es)(Edge.ordering), s"$name, ${par.name}")
    }
  }

  test("sortedIds returns the identity for an ordered batch without sorting, and sorts one inversion") {
    val rnd = new java.util.Random(19)
    val ordered = Seq(
      "ties, -0.0/0.0 and duplicates" -> IndexedSeq(
        Edge(4, 5, -0.0), Edge(0, 1, 0.0), Edge(1, 0, 0.0), Edge(0, 1, 0.0), Edge(2, 3, 0.0),
        Edge(1, 9, 1.5), Edge(3, 7, 1.5), Edge(7, 3, 1.5), Edge(3, 8, 1.5), Edge(2, 5, 2.0),
        Edge(6, 0, Double.PositiveInfinity), Edge(0, 6, Double.PositiveInfinity)),
      "integer-tied 100000" -> IndexedSeq.fill(100000)(
        Edge(rnd.nextInt(1000), rnd.nextInt(1000), rnd.nextInt(5).toDouble)).sorted(Edge.ordering))
    for ((name, es) <- ordered; inner <- MstSpec.schemes) {
      val stable = es.indices.sortBy(es)(Edge.ordering)
      val par = new SortCounting(inner)
      val ids = EdgeBatch.of(es).sortedIds(par)
      assert(ids.toSeq == stable && ids.toSeq == es.indices, s"$name, ${inner.name}")
      assert(par.sorts == 0, s"$name, ${inner.name}")
      // Swap the first two adjacent edges that differ in the order.
      val k = es.indices.find(i => Edge.ordering.lt(es(i), es(i + 1))).get
      val inverted = es.updated(k, es(k + 1)).updated(k + 1, es(k))
      val sortedPar = new SortCounting(inner)
      val got = EdgeBatch.of(inverted).sortedIds(sortedPar)
      assert(got.toSeq == inverted.indices.sortBy(inverted)(Edge.ordering), s"$name inverted, ${inner.name}")
      assert(sortedPar.sorts == 1, s"$name inverted, ${inner.name}")
    }
  }
}

class KruskalSpec extends AnyFunSuite {

  test("one-shot Kruskal equals dense Prim weight on random complete graphs") {
    for (seed <- 1 to 5) {
      val ps = TestUtil.randomPoints(60, 2, seed)
      val edges = for {
        i <- 0 until ps.n
        j <- i + 1 until ps.n
      } yield Edge(i, j, ps.dist(i, j))
      val mst = Kruskal.mst(ps.n, edges, SeqScheme)
      assert(mst.size == ps.n - 1)
      TestUtil.assertSameWeight(mst, TestUtil.bruteEmst(ps))
    }
  }

  test("batched Kruskal with increasing-weight batches equals one-shot") {
    val ps = TestUtil.randomPoints(50, 3, seed = 9)
    val all = (for {
      i <- 0 until ps.n
      j <- i + 1 until ps.n
    } yield Edge(i, j, ps.dist(i, j))).sorted(Edge.ordering)
    val oneShot = Kruskal.mst(ps.n, all, SeqScheme)
    val uf = new UnionFind(ps.n)
    val out = new EdgeBatch.Builder
    all.grouped(100).foreach(b => Kruskal.runBatch(EdgeBatch.of(b), uf, out, SeqScheme))
    assert(out.size == ps.n - 1)
    assert(TestUtil.canonicalEdges(out.result()) == TestUtil.canonicalEdges(oneShot))
  }

  test("runBatch from columns accepts exactly the edges of a scan in Edge.ordering") {
    val rnd = new java.util.Random(37)
    val n = 3000
    val batches = Seq(
      "integer-tied" -> IndexedSeq.fill(100000)(Edge(rnd.nextInt(n), rnd.nextInt(n), rnd.nextInt(5).toDouble)),
      "random" -> IndexedSeq.fill(100000)(Edge(rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble())),
    )
    for ((name, es) <- batches) {
      val ref = new UnionFind(n)
      val want = es.sorted(Edge.ordering).filter(e => ref.union(e.u, e.v))
      for (par <- MstSpec.schemes) {
        val out = new EdgeBatch.Builder
        Kruskal.runBatch(EdgeBatch.of(es), new UnionFind(n), out, par)
        // Edge equality also compares orientation, and the sequences the order.
        assert(out.result() == want, s"$name, ${par.name}")
      }
    }
  }

  test("runBatch rejects a batch lighter than the heaviest accepted edge") {
    val uf = new UnionFind(4)
    val out = new EdgeBatch.Builder
    Kruskal.runBatch(EdgeBatch.of(IndexedSeq(Edge(0, 1, 2.0))), uf, out, SeqScheme)
    // A tie with the heaviest accepted edge is still in order.
    Kruskal.runBatch(EdgeBatch.of(IndexedSeq(Edge(1, 2, 2.0))), uf, out, SeqScheme)
    val ex = intercept[IllegalArgumentException] {
      Kruskal.runBatch(EdgeBatch.of(IndexedSeq(Edge(2, 3, 3.0), Edge(0, 3, 1.5))), uf, out, SeqScheme)
    }
    assert(ex.getMessage.contains("1.5") && ex.getMessage.contains("2.0"), ex.getMessage)
    assert(out.size == 2, "a rejected batch must accept nothing")
  }

  test("Kruskal on a forest input returns a spanning forest") {
    val edges = IndexedSeq(Edge(0, 1, 1.0), Edge(2, 3, 1.0))
    val mst = Kruskal.mst(4, edges, SeqScheme)
    assert(mst.size == 2)
  }

  test("an edge batch is a read view of its columns") {
    val es = Vector(Edge(0, 1, 1.0), Edge(3, 2, 0.5), Edge(1, 3, 2.0))
    val b = EdgeBatch.of(es)
    assert(EdgeBatch.of(b) eq b, "of must not copy a batch")
    assert(b == es && es == b, "a batch equals the Vector of its edges")
    assert(b.length == 3 && b(1) == Edge(3, 2, 0.5))
  }
}

class PrimSpec extends AnyFunSuite {

  test("denseMst produces n-1 edges spanning all points") {
    val ps = TestUtil.randomPoints(40, 2, 3)
    val mst = TestUtil.bruteEmst(ps)
    assert(mst.size == ps.n - 1)
    val uf = new UnionFind(ps.n)
    mst.foreach(e => uf.union(e.u, e.v))
    assert(uf.components == 1)
  }

  test("denseMst is optimal on a tiny hand-checked instance") {
    // Points on a line: MST must chain them left to right.
    val ps = repro.geometry.PointSet.fromRows(Seq(
      Array(0.0), Array(1.0), Array(3.0), Array(6.0)))
    val mst = Prim.denseMst(4, (i, j) => ps.dist(i, j))
    assert(TestUtil.canonicalEdges(mst) == Set((0, 1), (1, 2), (2, 3)))
    assert(math.abs(TestUtil.weightOf(mst) - 6.0) < 1e-12)
  }

  test("treeOrder visits every vertex once, starting at s") {
    val ps = TestUtil.randomPoints(80, 2, 4)
    val mst = TestUtil.bruteEmst(ps)
    for (s <- Seq(0, 7, 79)) {
      val (order, reach) = Prim.treeOrder(ps.n, mst, s)
      assert(order.head == s)
      assert(order.sorted.sameElements(Array.tabulate(ps.n)(identity)))
      assert(reach.head.isPosInfinity)
      assert(reach.tail.forall(_ > 0))
    }
  }

  test("treeOrder reachability values are a permutation of the MST weights") {
    val ps = TestUtil.randomPoints(60, 3, 5)
    val mst = TestUtil.bruteEmst(ps)
    val (_, reach) = Prim.treeOrder(ps.n, mst, 0)
    assert(reach.tail.sorted.toSeq == mst.map(_.w).sorted.toSeq)
  }

  test("treeOrder rejects non-spanning inputs") {
    intercept[IllegalArgumentException] {
      Prim.treeOrder(4, IndexedSeq(Edge(0, 1, 1.0)), 0)
    }
    // n - 1 edges, but with a cycle: the traversal runs out of edges.
    val ex = intercept[IllegalArgumentException] {
      Prim.treeOrder(4, IndexedSeq(Edge(0, 1, 1.0), Edge(1, 0, 1.0), Edge(2, 3, 1.0)), 0)
    }
    assert(ex.getMessage.contains("input edges do not form a connected tree"), ex.getMessage)
  }
}
