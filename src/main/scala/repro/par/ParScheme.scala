package repro.par

import java.util.Arrays
import java.util.concurrent.{Callable, ForkJoinTask}
import java.util.stream.IntStream

import scala.collection.immutable.ArraySeq
import scala.reflect.ClassTag

import org.apache.spark.SparkContext

/** What [[ParScheme.share]] returns; kept only for that method. */
trait Shared[T] {
  def value: T
  def release(): Unit = ()
}

/** Execution scheme for the parallel code of the paper's algorithms, and
  * the only module that knows how that code runs.
  *
  * The paper measures "1 thread" vs "48 cores" with identical algorithm
  * code on one Cilk runtime, through spawn/sync and parallel-for; we mirror
  * that with three primitives, [[forRange]], [[join2]] and [[sort]]. When
  * `targetTasks > 1` each runs on the JVM's common fork-join pool, whose
  * threads read the caller's objects in shared memory; otherwise it runs
  * on the calling thread. [[SeqScheme]] is the paper's 1-thread column,
  * [[ForkJoinScheme]] its all-cores one. An exception thrown by parallel
  * work reaches the caller, or is the cause of what does.
  */
trait ParScheme {
  def name: String

  /** Desired number of work items for a balanced fan-out (1 for seq). */
  def targetTasks: Int

  /** Calls `body(i)` once for every `i` in `[0, n)`, in order on the calling
    * thread or in any order on the pool; `body` must write disjoint state.
    */
  def forRange(n: Int)(body: Int => Unit): Unit =
    if (targetTasks > 1) IntStream.range(0, n).parallel().forEach(i => body(i))
    else {
      var i = 0
      while (i < n) { body(i); i += 1 }
    }

  /** Evaluates `a` and `b` and returns both results. On the pool `b` is
    * forked while the calling thread evaluates `a`, and runs inline if no
    * worker has taken it by then; otherwise both run on the calling thread,
    * `a` first. No task outlives the call: if `a` throws, `b` is unforked
    * or joined before the exception propagates.
    */
  def join2[A, B](a: => A, b: => B): (A, B) =
    if (targetTasks <= 1) {
      val x = a
      (x, b)
    } else {
      val task = ForkJoinTask.adapt(new Callable[B] { override def call(): B = b })
      task.fork()
      val x =
        try a
        catch { case t: Throwable => if (!task.tryUnfork()) task.quietlyJoin(); throw t }
      (x, if (task.tryUnfork()) b else task.join())
    }

  /** Sorts `keys` ascending in place. */
  def sort(keys: Array[Long]): Unit =
    if (targetTasks > 1) Arrays.parallelSort(keys) else Arrays.sort(keys)

  /** Applies `f` to every item with [[forRange]]. Order-preserving. */
  def mapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => B): IndexedSeq[B] = {
    val out = new Array[B](items.size)
    forRange(items.size)(i => out(i) = f(items(i)))
    ArraySeq.unsafeWrapArray(out)
  }

  /** Applies `f: A => Seq[B]` with [[forRange]] and concatenates in item order. */
  def flatMapItems[A: ClassTag, B: ClassTag](items: IndexedSeq[A])(f: A => Seq[B]): IndexedSeq[B] =
    mapItems(items)(f).flatten

  /** The identity wrapper. No algorithm calls it; it stays only because
    * emstbench's `TracedScheme` overrides it (ROADMAP items 2 and 4 delete
    * it with [[Shared]]).
    */
  def share[T: ClassTag](v: T): Shared[T] = new Shared[T] {
    override def value: T = v
  }
}

/** Pure sequential execution — the paper's single-thread baseline. */
object SeqScheme extends ParScheme {
  override def name: String = "seq"

  override def targetTasks: Int = 1
}

/** Fork-join execution on the JVM's common pool, whose work stealing
  * balances unequal items.
  */
class ForkJoinScheme extends ParScheme {
  override def name: String = s"fork-join[$targetTasks]"

  /** Four items per core, so work stealing has unequal tasks to even out.
    * The WSPD frontier, hence a MemoGFK round's ρ_hi and the pair counts,
    * follow this width (`Wspd.round`).
    */
  override val targetTasks: Int = 4 * Runtime.getRuntime.availableProcessors
}

object ForkJoinScheme extends ForkJoinScheme

/** [[ForkJoinScheme]] under its old name: it ignores `sc` and starts no
  * Spark job. Kept only because emstbench's `Workloads.parallelScheme`
  * constructs it (ROADMAP items 2 and 4).
  */
final class SparkScheme(sc: SparkContext) extends ForkJoinScheme
