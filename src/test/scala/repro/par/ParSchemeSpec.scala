package repro.par

import java.nio.file.{Files, Paths}
import java.util.concurrent.{CountDownLatch, ForkJoinTask, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

import repro.{SparkSpec, TestUtil}
import repro.core.{EmstMemoGfk, Hdbscan, MemoGfk}
import repro.wspd.WideSeqScheme

/** The contract of the three primitives and the fan-outs built on them,
  * that only `repro.par` decides how work runs, and that the parallel
  * scheme runs without Spark.
  */
class ParSchemeSpec extends SparkSpec {

  test("mapItems keeps the item order") {
    for (n <- Seq(0, 1, 2, 10000)) {
      val items = IndexedSeq.tabulate(n)(i => i * 3L)
      assert(ForkJoinScheme.mapItems(items)(x => x + 1) == items.map(_ + 1), s"n=$n")
    }
  }

  test("flatMapItems concatenates the items' results in item order") {
    for (n <- Seq(0, 1, 2, 10000)) {
      val items = IndexedSeq.range(0, n)
      val f = (i: Int) => Seq.fill(i % 3)(i)
      assert(ForkJoinScheme.flatMapItems(items)(f) == items.flatMap(f), s"n=$n")
    }
  }

  test("an exception thrown by a work item reaches the caller with its type and message") {
    final class ItemFailed(msg: String) extends RuntimeException(msg)
    val e = intercept[Throwable] {
      ForkJoinScheme.mapItems(IndexedSeq.range(0, 1000)) { i =>
        if (i == 737) throw new ItemFailed(s"item $i failed") else i
      }
    }
    val chain = Iterator.iterate(e)(_.getCause).takeWhile(_ != null).toSeq
    assert(chain.exists(t => t.isInstanceOf[ItemFailed] && t.getMessage == "item 737 failed"),
      chain.map(t => s"${t.getClass.getName}: ${t.getMessage}"))
  }

  test("SparkScheme is the fork-join scheme at its width") {
    val s = new SparkScheme(spark.sparkContext)
    assert(s.targetTasks == ForkJoinScheme.targetTasks)
    assert(ForkJoinScheme.targetTasks == 4 * Runtime.getRuntime.availableProcessors)
    assert(s.name == ForkJoinScheme.name)
  }

  test("no MST call under SparkScheme starts a Spark job or broadcasts") {
    val sc = spark.sparkContext
    val par = new SparkScheme(sc)
    val ps = TestUtil.randomPoints(2000, 3, 41)
    // Jobs are counted between two marker jobs. The listener bus delivers
    // events in order, so once the closing marker's start arrives, every
    // job started before it has been seen.
    val jobs = new AtomicInteger
    val phase = new AtomicInteger // 0 before the opening marker, 1 counting, 2 done
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.job.description")) match {
          case Some("marker") => phase.incrementAndGet()
          case _ => if (phase.get == 1) jobs.incrementAndGet()
        }
    }
    def marker(): Unit = {
      sc.setJobDescription("marker")
      try sc.parallelize(Seq(1), 1).count()
      finally sc.setJobDescription(null)
    }
    sc.addSparkListener(listener)
    try {
      marker()
      // Broadcast ids are consecutive, so a broadcast in between shows as a gap.
      val before = sc.broadcast(0)
      EmstMemoGfk.mst(ps, par)
      Hdbscan.mst(ps, 10, MemoGfk, par)
      val after = sc.broadcast(0)
      assert(after.id == before.id + 1, s"${after.id - before.id - 1} broadcasts")
      before.destroy(); after.destroy()
      marker()
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (phase.get < 2 && System.nanoTime() < deadline) Thread.sleep(10)
      assert(phase.get == 2, "the marker jobs never reached the listener")
      assert(jobs.get == 0, s"${jobs.get} Spark jobs")
    } finally sc.removeSparkListener(listener)
  }

  test("join2 runs on the caller under SeqScheme, forks under the pool") {
    val caller = Thread.currentThread
    var ran = Seq.empty[Thread]
    val seq = SeqScheme.join2({ ran :+= Thread.currentThread; 1 }, { ran :+= Thread.currentThread; "b" })
    assert(seq == ((1, "b")) && ran == Seq(caller, caller))
    // `a` waits until `b` has started, so `b` must run on a pool thread.
    val started = new CountDownLatch(1)
    @volatile var bThread: Thread = null
    val (aSawB, b) = ForkJoinScheme.join2(
      started.await(30, TimeUnit.SECONDS),
      { bThread = Thread.currentThread; started.countDown(); 2 })
    assert(aSawB && b == 2)
    assert(bThread != null && bThread != caller)
    // Nested forks all run and their results are joined.
    def sum(lo: Int, hi: Int): Long =
      if (hi - lo <= 64) (lo until hi).map(_.toLong).sum
      else {
        val mid = (lo + hi) >>> 1
        val (l, r) = ForkJoinScheme.join2(sum(lo, mid), sum(mid, hi))
        l + r
      }
    assert(sum(0, 100000) == 100000L * 99999 / 2)
  }

  test("join2 lets no forked thunk outlive a throwing first thunk") {
    // `a` throws only once `b` runs on a pool thread, so `b` cannot be
    // unforked and join2 has to wait for it.
    val started = new CountDownLatch(1)
    @volatile var done = false
    val e = intercept[IllegalStateException] {
      ForkJoinScheme.join2(
        { started.await(30, TimeUnit.SECONDS); throw new IllegalStateException("a failed") },
        { started.countDown(); Thread.sleep(300); done = true })
    }
    assert(e.getMessage == "a failed")
    assert(done, "join2 returned while its forked thunk was still running")
  }

  test("seq schemes run every body on the caller; fork-join reaches the pool") {
    val caller = Thread.currentThread
    for (par <- Seq(SeqScheme, WideSeqScheme(16))) {
      val ran = new Array[Thread](1000)
      par.forRange(ran.length)(i => ran(i) = Thread.currentThread)
      assert(ran.forall(_ eq caller), par.name)
      val (a, b) = par.join2(Thread.currentThread, Thread.currentThread)
      assert((a eq caller) && (b eq caller), par.name)
    }
    // Each body waits until some body has run on a pool thread, so the
    // loop returns in time only if one does.
    val onPool = new CountDownLatch(1)
    ForkJoinScheme.forRange(64) { _ =>
      if (ForkJoinTask.inForkJoinPool()) onPool.countDown()
      onPool.await(30, TimeUnit.SECONDS)
    }
    assert(onPool.getCount == 0, "no forRange body ran on a pool thread")
  }

  test("only repro.par names the JDK's parallel APIs") {
    val banned = "IntStream|ForkJoinTask|ForkJoinPool|RecursiveAction|parallelSort".r
    val root = Paths.get("src/main/scala")
    assert(Files.isDirectory(root), s"no $root under ${Paths.get("").toAbsolutePath}")
    val walk = Files.walk(root)
    val hits =
      try walk.iterator.asScala
        .filter(p => p.toString.endsWith(".scala") && !p.startsWith(root.resolve("repro/par")))
        .flatMap { p =>
          Files.readAllLines(p).asScala.zipWithIndex.collect {
            case (line, i) if banned.findFirstIn(line).isDefined => s"$p:${i + 1}: ${line.trim}"
          }
        }.toList
      finally walk.close()
    if (hits.nonEmpty) fail(hits.mkString("\n"))
  }
}
