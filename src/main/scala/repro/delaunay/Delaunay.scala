package repro.delaunay

import scala.collection.mutable

import repro.geometry.PointSet

/** 2D Delaunay triangulation by incremental Bowyer–Watson insertion — the
  * substrate for EMST-Delaunay (Appendix A.1).
  *
  * Triangles carry per-edge adjacency, so each insertion is: (1) locate the
  * containing triangle by walking from the last insertion site (orientation
  * tests), (2) flood-fill the "bad" cavity across neighbors whose
  * circumcircle contains the point, (3) re-triangulate the cavity boundary
  * as a fan around the point, stitching adjacency locally. Expected
  * near-linear work on the shuffled insertion order — the practical
  * stand-in for the paper's PBBS parallel triangulator (DESIGN.md §3).
  *
  * A super-triangle far outside the data hosts the insertions; triangles
  * touching it are dropped at the end. Exact duplicates are inserted once
  * and reported so the EMST layer can stitch them back with 0-weight edges.
  */
object Delaunay {

  /** Result: Delaunay edges among distinct points, plus for each dropped
    * duplicate its surviving representative.
    */
  final case class Triangulation(edges: IndexedSeq[(Int, Int)], duplicateOf: Map[Int, Int])

  def triangulate(ps: PointSet): Triangulation = {
    require(ps.dim == 2, s"Delaunay requires 2D points, got dim=${ps.dim}")
    val n = ps.n
    require(n >= 1, "empty point set: 2-dimensional, no points")

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

    // Deduplicate exact coordinate collisions; shuffle the insertion order
    // (deterministically) for the expected near-linear behavior.
    val seen = mutable.HashMap.empty[(Double, Double), Int]
    val duplicateOf = mutable.HashMap.empty[Int, Int]
    val insertOrder = mutable.ArrayBuffer.empty[Int]
    i = 0
    while (i < n) {
      seen.get((xs(i), ys(i))) match {
        case Some(rep) => duplicateOf(i) = rep
        case None => seen((xs(i), ys(i))) = i; insertOrder += i
      }
      i += 1
    }
    val rnd = new java.util.Random(0x5eed)
    var k = insertOrder.length - 1
    while (k > 0) {
      val j = rnd.nextInt(k + 1)
      val t = insertOrder(k); insertOrder(k) = insertOrder(j); insertOrder(j) = t
      k -= 1
    }

    @inline def orient(a: Int, b: Int, px: Double, py: Double): Double =
      (xs(b) - xs(a)) * (py - ys(a)) - (ys(b) - ys(a)) * (px - xs(a))

    // Triangle soup: 3 CCW vertices + 3 neighbors per triangle. Edge k of a
    // triangle joins vertex k and vertex (k+1)%3; nbr(k) is the triangle
    // across that edge (-1 on the outside).
    val triV = new mutable.ArrayBuffer[Int](8 * n)
    val triN = new mutable.ArrayBuffer[Int](8 * n)
    val dead = new mutable.ArrayBuffer[Boolean](3 * n)
    def newTri(a: Int, b: Int, c: Int): Int = {
      val id = dead.length
      triV += a; triV += b; triV += c
      triN += -1; triN += -1; triN += -1
      dead += false
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

    val root = newTri(n, n + 1, n + 2)
    var lastTri = root

    /** Walk from `start` to a triangle containing point p. */
    def locate(start: Int, px: Double, py: Double): Int = {
      var t = start
      var steps = 0
      val maxSteps = 4 * (dead.length + 16)
      while (steps < maxSteps) {
        if (dead(t)) {
          // Restart from any live triangle (can happen right after a flip
          // region consumed the walk start).
          t = dead.indexOf(false)
        } else {
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
        }
        steps += 1
      }
      // Degenerate walk: fall back to a linear scan.
      var tt = 0
      while (tt < dead.length) {
        if (!dead(tt) &&
            orient(v(tt, 0), v(tt, 1), px, py) >= 0 &&
            orient(v(tt, 1), v(tt, 2), px, py) >= 0 &&
            orient(v(tt, 2), v(tt, 0), px, py) >= 0) return tt
        tt += 1
      }
      throw new IllegalStateException("point location failed")
    }

    val cavity = new mutable.ArrayBuffer[Int](64)
    val stack = new mutable.ArrayBuffer[Int](64)
    val inCavity = mutable.HashSet.empty[Int]

    insertOrder.foreach { p =>
      val t0 = locate(lastTri, xs(p), ys(p))
      // Flood-fill the cavity of triangles whose circumcircle contains p.
      cavity.clear(); stack.clear(); inCavity.clear()
      stack += t0; inCavity += t0
      while (stack.nonEmpty) {
        val t = stack.remove(stack.length - 1)
        cavity += t
        var j = 0
        while (j < 3) {
          val u = nbr(t, j)
          if (u >= 0 && !inCavity.contains(u) && inCircle(u, p)) {
            inCavity += u; stack += u
          }
          j += 1
        }
      }
      // Boundary edges of the cavity, in order of discovery.
      // For each, create the fan triangle (a, b, p) and stitch adjacency.
      val edgeOwner = mutable.HashMap.empty[Long, (Int, Int)] // vertex -> (newTri, edgeIdx)
      var ci = 0
      while (ci < cavity.length) {
        val t = cavity(ci)
        var j = 0
        while (j < 3) {
          val u = nbr(t, j)
          if (u < 0 || !inCavity.contains(u)) {
            val a = v(t, j); val b = v(t, (j + 1) % 3)
            val nt = newTri(a, b, p)
            // Outer side keeps its neighbor; retarget it to the new triangle.
            setNbr(nt, 0, u)
            if (u >= 0) setNbr(u, edgeTo(u, t), nt)
            // Sides (b,p) [edge 1] and (p,a) [edge 2] pair with sibling fans.
            def link(keyLo: Int, keyHi: Int, myEdge: Int): Unit = {
              val key = (math.min(keyLo, keyHi).toLong << 32) | math.max(keyLo, keyHi).toLong
              edgeOwner.get(key) match {
                case Some((ot, oe)) =>
                  setNbr(nt, myEdge, ot); setNbr(ot, oe, nt)
                case None =>
                  edgeOwner(key) = (nt, myEdge)
              }
            }
            link(b, p, 1)
            link(a, p, 2)
            lastTri = nt
          }
          j += 1
        }
        ci += 1
      }
      cavity.foreach(t => dead(t) = true)
    }

    val edges = mutable.HashSet.empty[(Int, Int)]
    var t = 0
    while (t < dead.length) {
      if (!dead(t)) {
        var j = 0
        while (j < 3) {
          val a = v(t, j); val b = v(t, (j + 1) % 3)
          if (a < n && b < n) edges += (if (a < b) (a, b) else (b, a))
          j += 1
        }
      }
      t += 1
    }
    Triangulation(edges.toIndexedSeq, duplicateOf.toMap)
  }
}
