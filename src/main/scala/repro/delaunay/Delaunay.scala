package repro.delaunay

import scala.collection.mutable

import repro.geometry.PointSet
import repro.kdtree.KdTree

/** 2D Delaunay triangulation by incremental Bowyer–Watson insertion — the
  * substrate for EMST-Delaunay (Appendix A.1).
  *
  * Points are inserted in kd-tree order (`KdTree.perm`), so consecutive
  * insertions are spatial neighbours and the point-location walks stay
  * short: the idea of BRIO (Amenta, Choi and Rote, SoCG 2003). Triangles
  * carry per-edge adjacency, so each insertion is: (1) locate the
  * containing triangle by walking from the previous insertion's newest
  * triangle (orientation tests), (2) flood-fill the "bad" cavity across
  * neighbors whose circumcircle contains the point, (3) re-triangulate the
  * cavity boundary as a fan around the point, stitching adjacency locally.
  * This is the practical stand-in for the paper's PBBS parallel
  * triangulator (DESIGN.md §3).
  *
  * A super-triangle far outside the data hosts the insertions; triangles
  * touching it are dropped at the end. Exact duplicates are inserted once
  * and reported so the EMST layer can stitch them back with 0-weight edges.
  */
object Delaunay {

  /** Result: Delaunay edges among distinct points, plus each point's
    * `representative`: the point itself, or for a dropped exact duplicate
    * the copy that was inserted (the first in kd-tree order).
    */
  final case class Triangulation(edges: IndexedSeq[(Int, Int)], representative: Array[Int])

  def triangulate(ps: PointSet): Triangulation = {
    require(ps.dim == 2, s"Delaunay requires 2D points, got dim=${ps.dim}")
    val order = KdTree.build(ps).perm
    val n = ps.n

    // Coordinates with three super-triangle vertices appended.
    val xs = new Array[Double](n + 3)
    val ys = new Array[Double](n + 3)
    var minX = Double.PositiveInfinity; var maxX = Double.NegativeInfinity
    var minY = Double.PositiveInfinity; var maxY = Double.NegativeInfinity
    var i = 0
    while (i < n) {
      xs(i) = ps(i, 0); ys(i) = ps(i, 1)
      if (xs(i) < minX) minX = xs(i); if (xs(i) > maxX) maxX = xs(i)
      if (ys(i) < minY) minY = ys(i); if (ys(i) > maxY) maxY = ys(i)
      i += 1
    }
    val span = math.max(maxX - minX, maxY - minY) max 1.0
    val cx = 0.5 * (minX + maxX); val cy = 0.5 * (minY + maxY)
    val m = 64.0 * span
    xs(n) = cx - 2 * m; ys(n) = cy - m
    xs(n + 1) = cx + 2 * m; ys(n + 1) = cy - m
    xs(n + 2) = cx; ys(n + 2) = cy + 2 * m

    @inline def orient(a: Int, b: Int, px: Double, py: Double): Double =
      (xs(b) - xs(a)) * (py - ys(a)) - (ys(b) - ys(a)) * (px - xs(a))

    // Triangle soup: 3 CCW vertices + 3 neighbors per triangle. Edge k of a
    // triangle joins vertex k and vertex (k+1)%3; nbr(k) is the triangle
    // across that edge (-1 on the outside). killedBy(t) is the point whose
    // cavity removed t, or -1 while t is live. The arrays double when full.
    var nTri = 0
    var killedBy = new Array[Int](2 * n + 1)
    var triV = new Array[Int](3 * killedBy.length)
    var triN = new Array[Int](3 * killedBy.length)
    def newTri(a: Int, b: Int, c: Int): Int = {
      if (nTri == killedBy.length) {
        killedBy = java.util.Arrays.copyOf(killedBy, 2 * nTri)
        triV = java.util.Arrays.copyOf(triV, 6 * nTri)
        triN = java.util.Arrays.copyOf(triN, 6 * nTri)
      }
      val id = nTri
      triV(3 * id) = a; triV(3 * id + 1) = b; triV(3 * id + 2) = c
      triN(3 * id) = -1; triN(3 * id + 1) = -1; triN(3 * id + 2) = -1
      killedBy(id) = -1
      nTri += 1
      id
    }
    @inline def v(t: Int, j: Int): Int = triV(3 * t + j)
    @inline def nbr(t: Int, j: Int): Int = triN(3 * t + j)
    @inline def setNbr(t: Int, j: Int, u: Int): Unit = triN(3 * t + j) = u
    /** Index of the edge of `t` whose neighbor is `u`. */
    def edgeTo(t: Int, u: Int): Int = {
      if (nbr(t, 0) == u) 0 else if (nbr(t, 1) == u) 1
      else { require(nbr(t, 2) == u, s"adjacency broken: $t !~ $u"); 2 }
    }

    /** p strictly inside the circumcircle of (CCW) triangle t. */
    def inCircle(t: Int, p: Int): Boolean = {
      val a = v(t, 0); val b = v(t, 1); val c = v(t, 2)
      val ax = xs(a) - xs(p); val ay = ys(a) - ys(p)
      val bx = xs(b) - xs(p); val by = ys(b) - ys(p)
      val cxx = xs(c) - xs(p); val cyy = ys(c) - ys(p)
      val det =
        (ax * ax + ay * ay) * (bx * cyy - cxx * by) -
          (bx * bx + by * by) * (ax * cyy - cxx * ay) +
          (cxx * cxx + cyy * cyy) * (ax * by - bx * ay)
      det > 0.0
    }

    var lastTri = newTri(n, n + 1, n + 2)

    /** Walk from the live triangle `start` to a triangle containing point p.
      * A live triangle's neighbors are live, so the walk never leaves them.
      */
    def locate(start: Int, px: Double, py: Double): Int = {
      var t = start
      var steps = 0
      val maxSteps = 4 * (nTri + 16)
      while (steps < maxSteps) {
        var moved = false
        var j = 0
        while (j < 3 && !moved) {
          if (orient(v(t, j), v(t, (j + 1) % 3), px, py) < 0) {
            val u = nbr(t, j)
            require(u >= 0, "walked outside the super-triangle")
            t = u
            moved = true
          }
          j += 1
        }
        if (!moved) return t
        steps += 1
      }
      // Degenerate walk: fall back to a linear scan.
      var tt = 0
      while (tt < nTri) {
        if (killedBy(tt) < 0 &&
            orient(v(tt, 0), v(tt, 1), px, py) >= 0 &&
            orient(v(tt, 1), v(tt, 2), px, py) >= 0 &&
            orient(v(tt, 2), v(tt, 0), px, py) >= 0) return tt
        tt += 1
      }
      throw new IllegalStateException("point location failed")
    }

    val cavity = new mutable.ArrayBuffer[Int](64)
    // fanFrom(a): the new triangle (a, b, p) whose cavity-boundary edge
    // starts at vertex a.
    val fanFrom = new Array[Int](n + 3)

    def insert(p: Int): Unit = {
      val t0 = locate(lastTri, xs(p), ys(p))
      // Flood-fill the cavity of triangles whose circumcircle contains p.
      // A cavity side whose outer neighbor stays is a boundary edge (a, b):
      // it gets the fan triangle (a, b, p), whose outer side keeps the old
      // neighbor, retargeted to the new triangle.
      val firstNew = nTri
      cavity.clear()
      cavity += t0; killedBy(t0) = p
      var ci = 0
      while (ci < cavity.length) {
        val t = cavity(ci)
        var j = 0
        while (j < 3) {
          val u = nbr(t, j)
          if (u < 0 || killedBy(u) != p) {
            if (u >= 0 && inCircle(u, p)) {
              killedBy(u) = p; cavity += u
            } else {
              val a = v(t, j)
              val nt = newTri(a, v(t, (j + 1) % 3), p)
              setNbr(nt, 0, u)
              if (u >= 0) setNbr(u, edgeTo(u, t), nt)
              fanFrom(a) = nt
            }
          }
          j += 1
        }
        ci += 1
      }
      // The boundary is one CCW cycle around p, so each boundary vertex
      // starts exactly one fan triangle, and (a, b, p) meets the one that
      // starts at b across its side (b, p).
      var nt = firstNew
      while (nt < nTri) {
        val next = fanFrom(v(nt, 1))
        require(next >= firstNew, "cavity boundary is not one cycle")
        setNbr(nt, 1, next); setNbr(next, 2, nt)
        nt += 1
      }
      lastTri = nTri - 1
    }

    // kd-tree order does not always put exact duplicates next to each other
    // (a midpoint that rounds onto a box face falls back to a split by
    // count), so they are found by their coordinates in an open-addressing
    // table of point ids, under half full. `+ 0.0` hashes -0.0 as 0.0.
    val bits = 33 - Integer.numberOfLeadingZeros(n)
    val slots = Array.fill(1 << bits)(-1)
    val representative = Array.range(0, n)
    for (p <- order) {
      val key = java.lang.Double.doubleToLongBits(xs(p) + 0.0) * 0x9E3779B97F4A7C15L +
        java.lang.Double.doubleToLongBits(ys(p) + 0.0)
      var at = (key * 0xC2B2AE3D27D4EB4FL >>> (64 - bits)).toInt
      while (slots(at) >= 0 && (xs(slots(at)) != xs(p) || ys(slots(at)) != ys(p)))
        at = (at + 1) & (slots.length - 1)
      if (slots(at) < 0) { slots(at) = p; insert(p) } else representative(p) = slots(at)
    }

    // Each edge between input points borders two live triangles that list
    // it in opposite directions, so it is emitted once, where a < b.
    val edges = mutable.ArrayBuffer.empty[(Int, Int)]
    var t = 0
    while (t < nTri) {
      if (killedBy(t) < 0) {
        var j = 0
        while (j < 3) {
          val a = v(t, j); val b = v(t, (j + 1) % 3)
          if (a < b && b < n) edges += ((a, b))
          j += 1
        }
      }
      t += 1
    }
    Triangulation(edges.toIndexedSeq, representative)
  }
}
