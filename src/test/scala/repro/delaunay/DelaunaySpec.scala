package repro.delaunay

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.geometry.PointSet

class DelaunaySpec extends AnyFunSuite {

  test("triangulation of a square contains the hull edges") {
    val ps = PointSet.fromRows(Seq(
      Array(0.0, 0.0), Array(1.0, 0.0), Array(1.0, 1.0), Array(0.0, 1.0)))
    val t = Delaunay.triangulate(ps)
    val e = t.edges.toSet
    assert(e.contains((0, 1)) && e.contains((1, 2)) && e.contains((2, 3)) && e.contains((0, 3)))
    // One of the two diagonals, never both.
    assert(e.contains((0, 2)) ^ e.contains((1, 3)))
  }

  test("Delaunay empty-circumcircle property holds on random points") {
    // Checks a consequence of the property by brute force: an edge whose
    // diametral disk holds no other point (a Gabriel edge) is an edge of
    // every Delaunay triangulation. On random points a point within 1e-9 of
    // the disk's circle counts as outside it. The grid and the ring need the
    // closed disk: both diagonals of a unit grid square, and every diameter
    // of the ring, have other points on that circle, and no triangulation
    // holds all of them.
    val openDisk = (d2: Double, r2: Double) => d2 >= r2 - 1e-9
    val closedDisk = (d2: Double, r2: Double) => d2 > r2 + 1e-9
    for ((ps, outside) <- Seq(
           (TestUtil.randomPoints(60, 2, 1), openDisk),
           (TestUtil.integerGrid(30, 2), closedDisk),
           (TestUtil.cocircularRing(400), closedDisk))) {
      val t = Delaunay.triangulate(ps)
      def gabriel(i: Int, j: Int): Boolean = {
        val cx = (ps(i, 0) + ps(j, 0)) / 2
        val cy = (ps(i, 1) + ps(j, 1)) / 2
        val r2 = ps.dist2(i, j) / 4
        (0 until ps.n).forall { k =>
          k == i || k == j || {
            val dx = ps(k, 0) - cx; val dy = ps(k, 1) - cy
            outside(dx * dx + dy * dy, r2)
          }
        }
      }
      val edgeSet = t.edges.toSet
      for (i <- 0 until ps.n; j <- i + 1 until ps.n if gabriel(i, j)) {
        assert(edgeSet.contains((i, j)), s"Gabriel edge ($i,$j) missing from Delaunay (n=${ps.n})")
      }
    }
  }

  test("edge count is linear (at most 3n-6)") {
    val ps = TestUtil.randomPoints(300, 2, 2)
    val t = Delaunay.triangulate(ps)
    assert(t.edges.size <= 3 * ps.n - 6)
    assert(t.edges.size >= ps.n - 1, "triangulation must connect all points")
  }

  test("duplicates are reported and excluded from the triangulation") {
    val ps = TestUtil.pointsWithDuplicates(50, 2, 3)
    val t = Delaunay.triangulate(ps)
    val dups = (0 until ps.n).filter(i => t.representative(i) != i)
    assert(dups.nonEmpty)
    for (dup <- dups) {
      val rep = t.representative(dup)
      assert(ps.dist(dup, rep) == 0.0 && t.representative(rep) == rep)
      assert(!t.edges.exists { case (u, v) => u == dup || v == dup })
    }
  }

  test("a point at -0.0 is an exact duplicate of its copy at 0.0") {
    val ps = PointSet.fromRows(Seq(
      Array(0.0, 0.0), Array(1.0, 0.0), Array(-0.0, -0.0), Array(0.0, 1.0), Array(0.0, -0.0)))
    val t = Delaunay.triangulate(ps)
    val rep = t.representative
    assert(rep(0) == rep(2) && rep(0) == rep(4), rep.toSeq)
    assert(Seq(0, 2, 4).count(i => rep(i) == i) == 1, rep.toSeq)
    assert(t.edges.toSet.size == 3, t.edges)
  }

  test("triangulation rejects non-2D input") {
    intercept[IllegalArgumentException] {
      Delaunay.triangulate(TestUtil.randomPoints(10, 3, 4))
    }
  }

  test("collinear points triangulate into a connected path-compatible edge set") {
    val ps = PointSet.fromRows((0 until 10).map(i => Array(i.toDouble, 0.0)))
    val t = Delaunay.triangulate(ps)
    // All consecutive pairs must be present (they are Gabriel edges).
    for (i <- 0 until 9) assert(t.edges.contains((i, i + 1)))
  }
}

class DualTreeBoruvkaSpec extends AnyFunSuite {
  import repro.baseline.DualTreeBoruvka

  test("dual-tree Boruvka matches dense Prim on random data, several dims") {
    for (dim <- Seq(2, 3, 5); seed <- Seq(1L, 2L)) {
      val ps = TestUtil.randomPoints(150, dim, seed)
      val got = DualTreeBoruvka.mst(ps)
      assert(got.size == ps.n - 1)
      TestUtil.assertSameWeight(got, TestUtil.bruteEmst(ps))
    }
  }

  test("dual-tree Boruvka matches the exact edge set with unique weights") {
    val ps = TestUtil.randomPoints(120, 2, 3)
    assert(TestUtil.canonicalEdges(DualTreeBoruvka.mst(ps)) ==
      TestUtil.canonicalEdges(TestUtil.bruteEmst(ps)))
  }

  test("dual-tree Boruvka handles clustered and duplicated data") {
    val clustered = TestUtil.clusteredPoints(150, 3, 4)
    TestUtil.assertSameWeight(DualTreeBoruvka.mst(clustered), TestUtil.bruteEmst(clustered))
    val dups = TestUtil.pointsWithDuplicates(100, 2, 5)
    TestUtil.assertSameWeight(DualTreeBoruvka.mst(dups), TestUtil.bruteEmst(dups))
  }

  test("dual-tree Boruvka works at tiny sizes") {
    for (n <- Seq(2, 3, 9)) {
      val ps = TestUtil.randomPoints(n, 2, 6)
      assert(DualTreeBoruvka.mst(ps).size == n - 1)
    }
  }

  test("dual-tree Boruvka agrees with EMST-MemoGFK on varden data") {
    val ps = repro.geometry.Generators.ssVarden(400, 2, 7)
    TestUtil.assertSameWeight(
      DualTreeBoruvka.mst(ps),
      repro.core.EmstMemoGfk.mst(ps, repro.par.SeqScheme).edges)
  }
}
