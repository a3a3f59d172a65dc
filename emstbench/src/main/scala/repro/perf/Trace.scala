package repro.perf

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.reflect.ClassTag

import repro.par.{ParScheme, Shared}

/** JVM-global busy nanoseconds per thread. Under `local[*]` every work item
  * runs in an executor thread of this JVM, so one static accumulator sees
  * them all. One partition runs many items, so busy time is summed per
  * thread; a per-item maximum would not say how long a thread was busy.
  */
object BusyClock {
  private val perThread = new ConcurrentHashMap[java.lang.Long, AtomicLong]()

  def add(ns: Long): Unit =
    perThread.computeIfAbsent(Thread.currentThread().getId, _ => new AtomicLong).addAndGet(ns)

  def snapshot(): Map[Long, Long] =
    perThread.asScala.iterator.map { case (t, ns) => (t.longValue, ns.get) }.toMap
}

/** One traced interval. `parent` is the id of the enclosing span, -1 at the
  * top. Fan-out spans also carry their item count, the busy time summed
  * over threads and the busy time of the busiest thread.
  */
final class Span(val id: Int, val parent: Int, val name: String, val startNs: Long) {
  var endNs: Long = 0L
  var items: Int = 0
  var busyNs: Long = 0L
  var busiestNs: Long = 0L
  def durNs: Long = endNs - startNs
}

/** Spans of one pipeline run, kept in memory in call order. Spans open and
  * close on the driver thread only: stages are opened by the benchmark and
  * fan-outs by [[TracedScheme]], whose methods the algorithms call from
  * the driver.
  */
final class Tracer {
  val spans: ArrayBuffer[Span] = ArrayBuffer.empty
  private var open = -1

  def span[T](name: String)(body: Span => T): T = {
    val s = new Span(spans.size, open, name, System.nanoTime())
    spans += s
    val saved = open
    open = s.id
    try body(s)
    finally { s.endNs = System.nanoTime(); open = saved }
  }

  def stage[T](name: String)(body: => T): T = span(name)(_ => body)

  def children(of: Span): Iterator[Span] = spans.iterator.filter(_.parent == of.id)

  def named(name: String): Iterator[Span] = spans.iterator.filter(_.name == name)
}

/** A [[ParScheme]] decorator that records one span per `mapItems`,
  * `flatMapItems` and `share` call and times every work item. It passes
  * the items, and so the partitioning, and `targetTasks` through
  * unchanged, so a traced run computes exactly what an untraced one does.
  */
final class TracedScheme(inner: ParScheme, @transient tracer: Tracer) extends ParScheme {
  import TracedScheme.timed

  override def name: String = inner.name

  override def targetTasks: Int = inner.targetTasks

  override def mapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => B): IndexedSeq[B] =
    fanOut(TracedScheme.MapItems, items.size)(inner.mapItems(items)(timed(f)))

  override def flatMapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => Seq[B]): IndexedSeq[B] =
    fanOut(TracedScheme.FlatMapItems, items.size)(inner.flatMapItems(items)(timed(f)))

  override def share[T: ClassTag](v: T): Shared[T] =
    tracer.stage(TracedScheme.Share)(inner.share(v))

  private def fanOut[R](kind: String, items: Int)(body: => R): R = tracer.span(kind) { s =>
    val before = BusyClock.snapshot()
    val r = body
    val deltas = BusyClock.snapshot().map { case (t, ns) => ns - before.getOrElse(t, 0L) }
    s.items = items
    s.busyNs = deltas.sum
    s.busiestNs = if (deltas.isEmpty) 0L else deltas.max
    r
  }
}

object TracedScheme {
  val MapItems = "mapItems"
  val FlatMapItems = "flatMapItems"
  val Share = "share"
  val FanOuts: Set[String] = Set(MapItems, FlatMapItems)

  /** `f` with its running time added to the calling thread's busy time.
    * Defined here, not in the class, so the closure captures only `f`.
    */
  def timed[A, B](f: A => B): A => B = a => {
    val t0 = System.nanoTime()
    try f(a) finally BusyClock.add(System.nanoTime() - t0)
  }
}
