package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil
import repro.kdtree.KdTree
import repro.par.{ParScheme, Shared}
import repro.wspd.{Ctx, EuclidMetric, GeometricSep, MutualReachMetric, MutualUnreachableSep,
  WideSeqScheme}

/** Delegates to `inner` and records every `Shared` it hands out, with the
  * class of the shared value and the number of times it was released.
  */
final class CountingScheme(inner: ParScheme) extends ParScheme {
  final class Counted[T](in: Shared[T], val valueClass: Class[_]) extends Shared[T] {
    var releases = 0
    override def value: T = in.value
    override def release(): Unit = { releases += 1; in.release() }
  }

  val made: ArrayBuffer[Counted[_]] = ArrayBuffer.empty

  override def name: String = s"counting[${inner.name}]"

  override def mapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => B): IndexedSeq[B] =
    inner.mapItems(items)(f)

  override def flatMapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => Seq[B]): IndexedSeq[B] =
    inner.flatMapItems(items)(f)

  override def share[T: ClassTag](v: T): Shared[T] = {
    val s = new Counted(inner.share(v), v.getClass)
    made += s
    s
  }

  override def targetTasks: Int = inner.targetTasks
}

class MemoGfkEngineSpec extends AnyFunSuite {

  test("MemoGFK releases every Shared it creates and shares at most once per round plus the context") {
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
      assert(par.made.size <= 1 + r.stats.rounds,
        s"$name width=$width: ${par.made.size} shares in ${r.stats.rounds} rounds")
      assert(par.made.forall(_.releases == 1),
        s"$name width=$width releases ${par.made.map(_.releases)}")
    }
  }

  test("an HDBSCAN* or OPTICS run shares its kd-tree once, inside the context; CoreDist shares nothing") {
    val ps = TestUtil.randomPoints(300, 3, 22)
    val knn = new CountingScheme(WideSeqScheme(7))
    CoreDist.compute(KdTree.build(ps), 10, knn)
    assert(knn.made.isEmpty, s"CoreDist shared ${knn.made.map(_.valueClass.getSimpleName)}")
    val runs: Seq[(String, ParScheme => MstResult)] = Seq(
      ("HDBSCAN*-GanTao", par => Hdbscan.mst(ps, 10, GanTao, par).mst),
      ("HDBSCAN*-MemoGFK", par => Hdbscan.mst(ps, 10, MemoGfk, par).mst),
      ("OPTICS-GanTaoApprox", par => OpticsApprox.mst(ps, 10, 0.125, par).mst))
    for ((name, run) <- runs) {
      val par = new CountingScheme(WideSeqScheme(7))
      val r = run(par)
      val classes = par.made.map(_.valueClass.getSimpleName)
      assert(r.edges.size == ps.n - 1, name)
      assert(par.made.size <= 1 + r.stats.rounds, s"$name: $classes in ${r.stats.rounds} rounds")
      assert(par.made.forall(_.releases == 1), s"$name releases ${par.made.map(_.releases)}")
      assert(!par.made.exists(_.valueClass == classOf[KdTree]), s"$name shared a bare kd-tree: $classes")
    }
  }
}
