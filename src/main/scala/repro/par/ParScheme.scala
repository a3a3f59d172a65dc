package repro.par

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast

import scala.reflect.ClassTag

/** Read-only shared state visible inside parallel work items.
  *
  * `SparkScheme` backs this with a `Broadcast`; `SeqScheme` with the value
  * itself. Algorithms obtain one via [[ParScheme.share]] and call `.value`
  * inside closures, so the same algorithm body runs under both schemes.
  */
trait Shared[T] extends Serializable {
  def value: T
  /** Releases any cluster-side resources (broadcast blocks). */
  def release(): Unit = ()
}

/** Execution scheme for the data-parallel loops of the paper's algorithms.
  *
  * The paper measures "1 thread" vs "48 cores" with identical algorithm
  * code; we mirror that with [[SeqScheme]] (pure driver-side loops) vs
  * [[SparkScheme]] (RDD fan-out over work items with broadcast shared
  * state and shared-memory access inside executor threads).
  */
trait ParScheme extends Serializable {
  def name: String

  /** Applies `f` to every item, in parallel under Spark. Order-preserving. */
  def mapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => B): IndexedSeq[B]

  /** Applies `f: A => Seq[B]` and concatenates, in parallel under Spark. */
  def flatMapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => Seq[B]): IndexedSeq[B]

  /** Wraps read-only state for use inside `mapItems` closures. */
  def share[T: ClassTag](v: T): Shared[T]

  /** Desired number of work items for a balanced fan-out (1 for seq). */
  def targetTasks: Int
}

/** Pure sequential execution — the paper's single-thread baseline. */
object SeqScheme extends ParScheme {
  override def name: String = "seq"

  override def mapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => B): IndexedSeq[B] =
    items.map(f)

  override def flatMapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => Seq[B]): IndexedSeq[B] =
    items.flatMap(f)

  override def share[T: ClassTag](v: T): Shared[T] = new Shared[T] {
    override def value: T = v
  }

  override def targetTasks: Int = 1
}

/** Spark-backed execution: work items fan out over an RDD, shared state is
  * broadcast once per algorithm run, and executor threads (local[*]) access
  * it through shared memory. Each fan-out uses `defaultParallelism` RDD
  * partitions.
  */
final class SparkScheme(@transient val sc: SparkContext) extends ParScheme {
  private val slices: Int = sc.defaultParallelism

  override def name: String = s"spark[$slices]"

  override def mapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => B): IndexedSeq[B] =
    if (items.isEmpty) IndexedSeq.empty
    else if (items.size == 1) IndexedSeq(f(items.head)) // avoid job overhead for trivial rounds
    else sc.parallelize(items, math.min(slices, items.size)).map(f).collect().toIndexedSeq

  override def flatMapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => Seq[B]): IndexedSeq[B] =
    if (items.isEmpty) IndexedSeq.empty
    else if (items.size == 1) f(items.head).toIndexedSeq
    else sc.parallelize(items, math.min(slices, items.size)).flatMap(f).collect().toIndexedSeq

  override def share[T: ClassTag](v: T): Shared[T] = {
    val b: Broadcast[T] = sc.broadcast(v)
    new Shared[T] {
      override def value: T = b.value
      // Non-blocking: MemoGFK releases one broadcast per round and must not
      // stall the round loop on block-manager cleanup.
      override def release(): Unit = b.unpersist(blocking = false)
    }
  }

  override def targetTasks: Int = slices * 4
}
