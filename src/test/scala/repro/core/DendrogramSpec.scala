package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.geometry.{Generators, PointSet}
import repro.mst.{Edge, EdgeBatch, Prim}
import repro.par.{ForkJoinScheme, ParScheme, SeqScheme}
import repro.wspd.WideSeqScheme

private[core] object DendrogramSpec extends org.scalatest.Assertions {

  /** The one-thread run, the one-thread run at widths 2 to 100000 (grains
    * down to one edge), and the pool.
    */
  val schemes: Seq[ParScheme] = SeqScheme +: Seq(2, 7, 64, 100000).map(WideSeqScheme) :+ ForkJoinScheme

  private def assertSameNodes(par: Dendrogram, seq: Dendrogram, what: String): Unit = {
    assert(par.root == seq.root, s"$what: roots differ")
    assert(par.left.sameElements(seq.left), s"$what: left arrays differ")
    assert(par.right.sameElements(seq.right), s"$what: right arrays differ")
    assert(par.weight.sameElements(seq.weight), s"$what: weights differ")
  }

  /** Asserts that the dendrogram under each of `under` equals the one under
    * [[SeqScheme]] node for node, and returns the latter.
    */
  def assertEveryScheme(n: Int, edges: IndexedSeq[Edge], s: Int, what: String,
                        under: Seq[ParScheme] = schemes): Dendrogram = {
    val seq = Dendrogram.build(n, edges, s, SeqScheme)
    for (par <- under) assertSameNodes(Dendrogram.build(n, edges, s, par), seq, s"$what, ${par.name}")
    seq
  }
}

class DendrogramSpec extends AnyFunSuite {
  import DendrogramSpec.assertEveryScheme

  private def checkStructure(d: Dendrogram, edges: IndexedSeq[Edge]): Unit = {
    val n = d.n
    // Every node reachable from the root exactly once; leaf set is 0..n-1.
    val seen = scala.collection.mutable.HashSet.empty[Int]
    def visit(node: Int): Unit = {
      assert(seen.add(node), s"node $node reached twice")
      if (!d.isLeaf(node)) {
        val i = node - n
        visit(d.left(i)); visit(d.right(i))
      }
    }
    visit(d.root)
    assert(seen.size == 2 * n - 1)
    // Parent weight dominates child weights (dendrogram heights decrease
    // downward: the split edge is the heaviest within its cluster).
    def maxW(node: Int): Double =
      if (d.isLeaf(node)) 0.0
      else {
        val i = node - n
        val l = maxW(d.left(i)); val r = maxW(d.right(i))
        assert(d.weight(i) >= l - 1e-12 && d.weight(i) >= r - 1e-12,
          s"node weight ${d.weight(i)} below child max ${math.max(l, r)}")
        d.weight(i)
      }
    maxW(d.root)
    // Node weights are exactly the input edge weights.
    assert(d.weight.sorted.toSeq == edges.map(_.w).sorted.toSeq)
  }

  test("sequential dendrogram: structural invariants on EMST input") {
    val ps = TestUtil.randomPoints(120, 2, 1)
    val mst = TestUtil.bruteEmst(ps)
    checkStructure(Dendrogram.build(ps.n, mst, 0, SeqScheme), mst)
  }

  test("sequential dendrogram in-order equals Prim's traversal (ordered property)") {
    for (seed <- Seq(2L, 3L, 4L); s <- Seq(0, 5)) {
      val ps = TestUtil.randomPoints(100, 2, seed)
      val mst = TestUtil.bruteEmst(ps)
      val d = Dendrogram.build(ps.n, mst, s, SeqScheme)
      val (order, bars) = d.reachabilityPlot()
      val (wantOrder, wantBars) = Prim.treeOrder(ps.n, mst, s)
      assert(order.sameElements(wantOrder), s"seed=$seed s=$s visit order differs")
      order.indices.foreach { i =>
        assert(bars(i) == wantBars(i) ||
          math.abs(bars(i) - wantBars(i)) < 1e-12, s"bar $i differs")
      }
    }
  }

  test("ordered dendrogram on the HDBSCAN* MST matches Prim (reachability plot)") {
    val ps = Generators.ssVarden(150, 2, 5)
    val mst = TestUtil.bruteMutualReachMst(ps, 10)
    val d = Dendrogram.build(ps.n, mst, 0, SeqScheme)
    val (order, bars) = d.reachabilityPlot()
    val (wantOrder, wantBars) = Prim.treeOrder(ps.n, mst, 0)
    assert(order.sameElements(wantOrder))
    bars.zip(wantBars).foreach { case (a, b) =>
      assert(a == b || math.abs(a - b) < 1e-12)
    }
  }

  /** Four uniformFill blocks of `m` points, 1000 apart: the three joining
    * MST edges are the heaviest, so no top-level light component is a
    * majority.
    */
  private def fourClusters(m: Int): PointSet = {
    val blocks = (0 until 4).map(c => Generators.uniformFill(m, 2, 20L + c))
    PointSet.fromRows(blocks.zipWithIndex.flatMap { case (b, c) =>
      (0 until m).map(i => Array(b(i, 0) + 1000.0 * c, b(i, 1)))
    })
  }

  test("parallel dendrogram equals sequential node-for-node") {
    val rnd = new scala.util.Random(8)
    // (name, n, edges, start vertex)
    val inputs: Seq[(String, Int, IndexedSeq[Edge], Int)] = Seq(6L, 7L).map { seed =>
      val ps = TestUtil.randomPoints(200, 2, seed)
      (s"200 random points, seed $seed", ps.n, TestUtil.bruteEmst(ps), 0)
    } ++ Seq(
      // The lightest 90% of these edges form one giant component: merged whole.
      ("20K uniformFill 2D HDBSCAN* MST", 20000,
        Hdbscan.mst(Generators.uniformFill(20000, 2, 3), 10, MemoGfk, SeqScheme).mst.edges, 0),
      // No majority component, so the light components recurse.
      ("four separated clusters", 10000, EmstMemoGfk.mst(fourClusters(2500), SeqScheme).edges, 5),
      ("star", 2000, IndexedSeq.tabulate(1999)(i => Edge(0, i + 1, rnd.nextDouble())), 7),
      ("random tree of equal weights", 2000,
        IndexedSeq.tabulate(1999)(i => Edge(rnd.nextInt(i + 1), i + 1, 1.0)), 3),
      ("path of increasing weights", 500, IndexedSeq.tabulate(499)(i => Edge(i, i + 1, (i + 1).toDouble)), 0),
    )
    for ((name, n, edges, s) <- inputs) assertEveryScheme(n, edges, s, name)
    val n = 50000
    val path = IndexedSeq.tabulate(n - 1)(i => Edge(i, i + 1, (i + 1).toDouble))
    assertEveryScheme(n, path, 0, "path of increasing weights, n=50000")
  }

  test("parallel dendrogram equals sequential on HDBSCAN* MSTs and varden data") {
    val ps = Generators.ssVarden(300, 3, 8)
    val mst = TestUtil.bruteMutualReachMst(ps, 10)
    assertEveryScheme(ps.n, mst, 3, "varden")
  }

  test("parallel dendrogram at every width on larger input") {
    val ps = Generators.uniformFill(3000, 2, 9)
    assertEveryScheme(ps.n, EmstMemoGfk.mst(ps, SeqScheme).edges, 0, "uniformFill 3000")
  }

  test("dendrogram at n=2") {
    val edges = IndexedSeq(Edge(0, 1, 3.0))
    val d = assertEveryScheme(2, edges, 0, "n=2")
    assert(d.root == 2)
    val (order, bars) = d.reachabilityPlot()
    assert(order.sameElements(Array(0, 1)))
    assert(bars(0).isPosInfinity && bars(1) == 3.0)
  }

  test("dendrogram at n=1 is the single leaf, from both builders") {
    for (par <- DendrogramSpec.schemes) {
      val d = Dendrogram.build(1, IndexedSeq.empty, 0, par)
      assert(d.root == 0 && d.left.isEmpty && d.right.isEmpty && d.weight.isEmpty)
      val (order, bars) = d.reachabilityPlot()
      assert(order.sameElements(Array(0)))
      assert(bars.length == 1 && bars(0).isPosInfinity)
    }
  }

  private val path3 = IndexedSeq(Edge(0, 1, 1.0), Edge(1, 2, 2.0))
  private val builders: Seq[(Int, IndexedSeq[Edge], Int) => Dendrogram] =
    Seq(Dendrogram.buildSequential, Dendrogram.buildParallel)

  test("both builders reject a start vertex outside [0, n), naming it") {
    for (build <- builders) {
      val e = intercept[IllegalArgumentException](build(3, path3, 5))
      assert(e.getMessage.contains("start vertex 5 is outside [0, 3)"))
      intercept[IllegalArgumentException](build(3, path3, -1))
    }
  }

  test("both builders reject an edge count other than n - 1, naming it") {
    for (build <- builders) {
      val e = intercept[IllegalArgumentException](build(4, path3, 0))
      assert(e.getMessage.contains("a tree on 4 vertices has 3 edges, got 2"))
      intercept[IllegalArgumentException](build(2, path3, 0))
    }
  }

  test("dendrogram handles a path graph with increasing weights (worst case)") {
    val n = 500
    val edges = IndexedSeq.tabulate(n - 1)(i => Edge(i, i + 1, (i + 1).toDouble))
    val (order, _) = assertEveryScheme(n, edges, 0, "path").reachabilityPlot()
    assert(order.sameElements(Array.tabulate(n)(identity)), "path must be visited in line order")
  }

  /** Cluster ids are numbered in order of first appearance by point id. */
  private def assertFirstSeen(labels: Array[Int], what: String): Unit = {
    val seen = labels.toSeq.filter(_ >= 0).distinct
    assert(seen == seen.indices, s"$what: labels not numbered in first-seen order")
  }

  test("single-linkage labels from dendrogram cut match brute-force threshold components") {
    val ps = TestUtil.clusteredPoints(100, 2, 10)
    val mst = TestUtil.bruteEmst(ps)
    for (eps <- Seq(0.5, 2.0, 10.0)) {
      val got = Dendrogram.singleLinkageLabels(ps.n, mst, eps)
      // Brute force: components of the eps-threshold graph.
      val uf = new repro.mst.UnionFind(ps.n)
      for (i <- 0 until ps.n; j <- i + 1 until ps.n if ps.dist(i, j) <= eps) uf.union(i, j)
      val want = Array.tabulate(ps.n)(uf.find)
      assert(TestUtil.samePartition(got, want), s"eps=$eps")
      assertFirstSeen(got, s"eps=$eps")
    }
  }

  test("DBSCAN* labels from the HDBSCAN* MST match brute-force DBSCAN* at many eps") {
    val ps = TestUtil.clusteredPoints(120, 2, 11)
    val minPts = 5
    val res = Hdbscan.mst(ps, minPts, MemoGfk, SeqScheme)
    for (eps <- Seq(0.3, 1.0, 3.0, 20.0)) {
      val got = Dendrogram.dbscanStarLabels(ps.n, res.mst.edges, res.coreDist, eps)
      val want = TestUtil.bruteDbscanStar(ps, minPts, eps)
      assert(TestUtil.samePartition(got, want), s"eps=$eps")
      assertFirstSeen(got, s"eps=$eps")
    }
  }

  test("DBSCAN* extraction: eps below all core distances marks everything noise") {
    val ps = TestUtil.randomPoints(60, 2, 12)
    val res = Hdbscan.mst(ps, 10, MemoGfk, SeqScheme)
    val labels = Dendrogram.dbscanStarLabels(ps.n, res.mst.edges, res.coreDist, eps = 1e-12)
    assert(labels.forall(_ == -1))
  }

  test("DBSCAN* extraction: huge eps puts everything in one cluster") {
    val ps = TestUtil.randomPoints(60, 2, 13)
    val res = Hdbscan.mst(ps, 5, MemoGfk, SeqScheme)
    val labels = Dendrogram.dbscanStarLabels(ps.n, res.mst.edges, res.coreDist, eps = 1e9)
    assert(labels.forall(_ == 0))
  }

  test("vertexDistances computes BFS distances on the tree") {
    //    0 -1- 1 -1- 2
    //          |
    //          3
    val edges = IndexedSeq(Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(1, 3, 1.0))
    val vd = Dendrogram.vertexDistances(4, EdgeBatch.of(edges), s = 0)
    assert(vd.toSeq == Seq(0, 1, 2, 2))
    val vd1 = Dendrogram.vertexDistances(4, EdgeBatch.of(edges), s = 1)
    assert(vd1.toSeq == Seq(1, 0, 1, 1))
  }

  test("vertexDistances rejects disconnected input") {
    intercept[IllegalArgumentException] {
      Dendrogram.vertexDistances(4, EdgeBatch.of(IndexedSeq(Edge(0, 1, 1.0))), 0)
    }
  }

  test("reachability plot bars are a permutation of the MST weights plus one infinity") {
    val ps = TestUtil.randomPoints(90, 3, 14)
    val mst = TestUtil.bruteEmst(ps)
    val d = Dendrogram.build(ps.n, mst, 0, SeqScheme)
    val (_, bars) = d.reachabilityPlot()
    assert(bars.count(_.isPosInfinity) == 1)
    assert(bars.filterNot(_.isPosInfinity).sorted.toSeq == mst.map(_.w).sorted.toSeq)
  }

  test("a Figure-1-style example: cutting at eps=3.5 gives the paper's clusters") {
    // A toy MST of G_MR in the spirit of Figure 1 (ids a=0..i=8): cutting
    // the dendrogram at eps=3.5 must yield clusters {d,b} and {e,g,f,h}
    // with a, c, i as noise — the exact outcome the paper describes.
    val edges = IndexedSeq(
      Edge(0, 3, 4.0), Edge(3, 1, 3.0), Edge(1, 2, 5.7), Edge(3, 4, 5.1),
      Edge(4, 6, 2.2), Edge(6, 5, 2.2), Edge(5, 7, 2.8), Edge(7, 8, 5.1))
    val cd = Array(4.0, 3.0, 5.7, 3.0, 2.2, 2.2, 2.2, 2.8, 5.1)
    val labels = Dendrogram.dbscanStarLabels(9, edges, cd, eps = 3.5)
    assert(labels(0) == -1 && labels(2) == -1 && labels(8) == -1, "a, c, i are noise")
    assert(labels(3) >= 0 && labels(3) == labels(1), "{d,b} form one cluster")
    assert(labels(4) >= 0 && labels(4) == labels(5) && labels(5) == labels(6) && labels(6) == labels(7),
      "e,f,g,h form one cluster")
    assert(labels(3) != labels(4), "the two clusters are distinct")
    // The ordered dendrogram over these edges reproduces Prim's order.
    val d = Dendrogram.build(9, edges, 0, SeqScheme)
    val (order, _) = d.reachabilityPlot()
    val (wantOrder, _) = Prim.treeOrder(9, edges, 0)
    assert(order.sameElements(wantOrder))
  }
}
