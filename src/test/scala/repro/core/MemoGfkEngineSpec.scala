package repro.core

import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.geometry.Generators
import repro.kdtree.KdTree
import repro.mst.UnionFind
import repro.par.{ParScheme, SeqScheme, Shared}
import repro.wspd.{Ctx, EuclidMetric, GeometricSep, MutualReachMetric, MutualUnreachableSep,
  WideSeqScheme, Wspd}

/** Delegates to `inner`, records the class of every value passed to
  * `share` and counts the `join2` calls.
  */
final class CountingScheme(inner: ParScheme) extends ParScheme {
  val made: ArrayBuffer[Class[_]] = ArrayBuffer.empty
  val joins = new AtomicLong

  override def name: String = s"counting[${inner.name}]"

  override def forRange(n: Int)(body: Int => Unit): Unit = inner.forRange(n)(body)

  override def join2[A, B](a: => A, b: => B): (A, B) = {
    joins.incrementAndGet()
    inner.join2(a, b)
  }

  override def sort(keys: Array[Long]): Unit = inner.sort(keys)

  override def share[T: ClassTag](v: T): Shared[T] = {
    made += v.getClass
    inner.share(v)
  }

  override def targetTasks: Int = inner.targetTasks
}

/** Work items read the caller's objects in place, so no algorithm wraps
  * anything with `share`.
  */
class MemoGfkEngineSpec extends AnyFunSuite {

  test("MemoGFK shares nothing at any width") {
    val ps = TestUtil.randomPoints(300, 3, 21)
    val tree = KdTree.build(ps)
    val runs = Seq(
      ("emst", Ctx.euclidean(tree), GeometricSep(2.0), EuclidMetric),
      ("hdbscan", Ctx.mutualReach(tree, TestUtil.bruteCoreDist(ps, 5)), MutualUnreachableSep,
        MutualReachMetric))
    for ((name, ctx, sep, metric) <- runs; width <- Seq(1, 7)) {
      val par = new CountingScheme(WideSeqScheme(width))
      val r = MemoGfkEngine.mst(ctx, sep, metric, par)
      assert(r.edges.size == ps.n - 1, s"$name width=$width")
      assert(par.made.isEmpty, s"$name width=$width shared ${par.made.map(_.getSimpleName)}")
    }
  }

  test("no entry point or core-distance run shares anything") {
    val ps = TestUtil.randomPoints(300, 3, 22)
    val ps2 = Generators.uniformFill(300, 2, 22)
    val knn = new CountingScheme(WideSeqScheme(7))
    CoreDist.compute(KdTree.build(ps), 10, knn)
    assert(knn.made.isEmpty, s"CoreDist shared ${knn.made.map(_.getSimpleName)}")
    val runs: Seq[(String, ParScheme => MstResult)] = Seq(
      ("EMST-Naive", par => EmstNaive.mst(ps, par)),
      ("EMST-GFK", par => EmstGfk.mst(ps, par)),
      ("EMST-MemoGFK", par => EmstMemoGfk.mst(ps, par)),
      ("EMST-Delaunay", par => EmstDelaunay.mst(ps2, par)),
      ("HDBSCAN*-GanTao", par => Hdbscan.mst(ps, 10, GanTao, par).mst),
      ("HDBSCAN*-MemoGFK", par => Hdbscan.mst(ps, 10, MemoGfk, par).mst),
      ("OPTICS-GanTaoApprox", par => OpticsApprox.mst(ps, 10, 0.125, par).mst))
    for ((name, run) <- runs) {
      val par = new CountingScheme(WideSeqScheme(7))
      val r = run(par)
      assert(r.edges.size == 300 - 1, name)
      assert(par.made.isEmpty, s"$name shared ${par.made.map(_.getSimpleName)}")
    }
  }

  test("the MemoGFK walk forks at width 16 and never under SeqScheme") {
    val ps = Generators.uniformFill(6000, 3, 23)
    val tree = KdTree.build(ps)
    val runs = Seq(
      ("emst", Ctx.euclidean(tree), GeometricSep(2.0), EuclidMetric),
      ("hdbscan", Ctx.mutualReach(tree, CoreDist.compute(tree, 10, SeqScheme)),
        MutualUnreachableSep, MutualReachMetric))
    for ((name, ctx, sep, metric) <- runs) {
      // One round on its own: only the walk can call join2.
      val snap = new UnionFind(ps.n).snapshot()
      val comp = Wspd.nodeComponents(tree, snap)
      def joins(inner: ParScheme): Long = {
        val par = new CountingScheme(inner)
        Wspd.round(ctx, sep, metric, 2L, 0.0, comp, snap, par)
        par.joins.get
      }
      assert(joins(SeqScheme) == 0, name)
      assert(joins(WideSeqScheme(16)) > 0, name)
      // A whole run: the node passes call join2 at every width, the walk
      // only at width 16.
      def engineJoins(inner: ParScheme): Long = {
        val par = new CountingScheme(inner)
        MemoGfkEngine.mst(ctx, sep, metric, par)
        par.joins.get
      }
      assert(engineJoins(WideSeqScheme(16)) > engineJoins(SeqScheme), name)
    }
  }
}
