package repro.par

import java.util.stream.IntStream

import scala.collection.immutable.ArraySeq
import scala.reflect.ClassTag

import org.apache.spark.SparkContext

/** What [[ParScheme.share]] returns; kept only for that method. */
trait Shared[T] {
  def value: T
  def release(): Unit = ()
}

/** Execution scheme for the data-parallel loops of the paper's algorithms.
  *
  * The paper measures "1 thread" vs "48 cores" with identical algorithm
  * code; we mirror that with [[SeqScheme]] (plain loops on the calling
  * thread) vs [[ForkJoinScheme]] (one fork-join fan-out over the work items
  * on the JVM's common pool, whose threads read the caller's objects in
  * shared memory).
  */
trait ParScheme {
  def name: String

  /** Applies `f` to every item, in parallel under fork-join. Order-preserving. */
  def mapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => B): IndexedSeq[B]

  /** Applies `f: A => Seq[B]` and concatenates in item order, in parallel
    * under fork-join.
    */
  def flatMapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => Seq[B]): IndexedSeq[B]

  /** The identity wrapper. No algorithm calls it; it stays only because
    * emstbench's `TracedScheme` overrides it (ROADMAP items 2 and 3 delete
    * it with [[Shared]]).
    */
  def share[T: ClassTag](v: T): Shared[T] = new Shared[T] {
    override def value: T = v
  }

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

  override def targetTasks: Int = 1
}

/** Fork-join execution: each fan-out is one parallel `IntStream` over the
  * item indices on the JVM's common pool, whose work stealing balances
  * unequal items. Results land in an array by item index, so the order is
  * the items' order whichever thread ran them. An exception thrown by an
  * item reaches the caller, or is the cause of what does.
  */
class ForkJoinScheme extends ParScheme {
  override def name: String = s"fork-join[$targetTasks]"

  override def mapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => B): IndexedSeq[B] = {
    val out = new Array[B](items.size)
    IntStream.range(0, items.size).parallel().forEach(i => out(i) = f(items(i)))
    ArraySeq.unsafeWrapArray(out)
  }

  override def flatMapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => Seq[B]): IndexedSeq[B] =
    mapItems(items)(f).flatten

  /** Four items per core, so work stealing has unequal tasks to even out.
    * The WSPD frontier, hence `getRho`'s value and the pair counts, follow
    * this width (`Wspd.getRho`).
    */
  override val targetTasks: Int = 4 * Runtime.getRuntime.availableProcessors
}

object ForkJoinScheme extends ForkJoinScheme

/** [[ForkJoinScheme]] under its old name: it ignores `sc` and starts no
  * Spark job. Kept only because emstbench's `Workloads.parallelScheme`
  * constructs it (ROADMAP items 2 and 3).
  */
final class SparkScheme(sc: SparkContext) extends ForkJoinScheme
