package repro.baseline

import scala.collection.mutable.ArrayBuffer

import repro.geometry.PointSet
import repro.kdtree.KdTree
import repro.mst.{Edge, UnionFind}
import repro.wspd.Wspd

/** Sequential dual-tree Borůvka EMST — our from-scratch stand-in for the
  * mlpack implementation of March et al. [43] that the paper uses as the
  * external sequential comparator (Table 3).
  *
  * Borůvka rounds: every component finds its minimum outgoing edge via a
  * simultaneous traversal of the kd-tree against itself, pruning node pairs
  * that (i) lie entirely in one component or (ii) are farther apart than
  * every contained component's current candidate (the per-node bound).
  */
object DualTreeBoruvka {

  def mst(ps: PointSet): IndexedSeq[Edge] = {
    val n = ps.n
    val tree = KdTree.build(ps, leafSize = 8)
    val uf = new UnionFind(n)
    val out = new ArrayBuffer[Edge](n - 1)

    // Per-component candidate edge, indexed by component root.
    val candW = new Array[Double](n)
    val candU = new Array[Int](n)
    val candV = new Array[Int](n)
    // Per-node upper bound on the candidate weight any contained component
    // still needs (stale-high is fine: it only weakens pruning).
    val bound = new Array[Double](tree.nNodes)

    while (uf.components > 1) {
      val snap = uf.snapshot()
      val comp = Wspd.nodeComponents(tree, snap)
      java.util.Arrays.fill(candW, Double.PositiveInfinity)
      java.util.Arrays.fill(bound, Double.PositiveInfinity)

      def refreshLeafBound(a: Int): Unit = {
        var b = 0.0
        var i = tree.lo(a)
        while (i < tree.hi(a)) {
          val w = candW(snap(tree.perm(i)))
          if (w > b) b = w
          i += 1
        }
        bound(a) = b
      }

      def visit(q: Int, r: Int): Unit = {
        // Fully inside one component: no outgoing edge here.
        if (comp(q) >= 0 && comp(q) == comp(r)) return
        if (q != r) {
          val gap = tree.sphereDist(q, r, tree.centerDist(q, r))
          if (gap >= bound(q) && gap >= bound(r)) return
        }
        if (tree.isLeaf(q) && tree.isLeaf(r)) {
          var i = tree.lo(q)
          while (i < tree.hi(q)) {
            val pi = tree.perm(i)
            val ci = snap(pi)
            var j = tree.lo(r)
            while (j < tree.hi(r)) {
              val pj = tree.perm(j)
              val cj = snap(pj)
              if (ci != cj) {
                val d = ps.dist(pi, pj)
                if (d < candW(ci)) { candW(ci) = d; candU(ci) = pi; candV(ci) = pj }
                if (d < candW(cj)) { candW(cj) = d; candU(cj) = pj; candV(cj) = pi }
              }
              j += 1
            }
            i += 1
          }
          refreshLeafBound(q)
          if (r != q) refreshLeafBound(r)
        } else if (q == r) {
          val l = tree.left(q); val rr = tree.right(q)
          visit(l, l); visit(rr, rr); visit(l, rr)
          bound(q) = math.max(bound(l), bound(rr))
        } else {
          // Split the node with the larger bounding sphere.
          if (!tree.isLeaf(q) && (tree.isLeaf(r) || tree.radius(q) >= tree.radius(r))) {
            visit(tree.left(q), r); visit(tree.right(q), r)
            bound(q) = math.max(bound(tree.left(q)), bound(tree.right(q)))
          } else {
            visit(q, tree.left(r)); visit(q, tree.right(r))
            bound(r) = math.max(bound(tree.left(r)), bound(tree.right(r)))
          }
        }
      }

      visit(tree.root, tree.root)

      // Add every component's minimum outgoing edge (union-find rejects the
      // duplicate of a mutually-chosen pair).
      var made = false
      var c = 0
      while (c < n) {
        if (candW(c) < Double.PositiveInfinity && uf.union(candU(c), candV(c))) {
          out += Edge(candU(c), candV(c), candW(c))
          made = true
        }
        c += 1
      }
      if (!made)
        throw new IllegalStateException("dual-tree Boruvka made no progress")
    }
    out.toIndexedSeq
  }
}
