package repro.par

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

import repro.{SparkSpec, TestUtil}
import repro.core.{EmstMemoGfk, Hdbscan, MemoGfk}

/** The fan-out contract of [[ForkJoinScheme]], and that the parallel
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

  test("Fork.join2 runs both thunks on the caller under SeqScheme, and forks under ForkJoinScheme") {
    val caller = Thread.currentThread
    var ran = Seq.empty[Thread]
    val seq = Fork.join2(SeqScheme)({ ran :+= Thread.currentThread; 1 }, { ran :+= Thread.currentThread; "b" })
    assert(seq == ((1, "b")) && ran == Seq(caller, caller))
    // `a` waits until `b` has started, so `b` must run on a pool thread.
    val started = new java.util.concurrent.CountDownLatch(1)
    @volatile var bThread: Thread = null
    val (aSawB, b) = Fork.join2(ForkJoinScheme)(
      started.await(30, java.util.concurrent.TimeUnit.SECONDS),
      { bThread = Thread.currentThread; started.countDown(); 2 })
    assert(aSawB && b == 2)
    assert(bThread != null && bThread != caller)
    // Nested forks all run and their results are joined.
    def sum(lo: Int, hi: Int): Long =
      if (hi - lo <= 64) (lo until hi).map(_.toLong).sum
      else {
        val mid = (lo + hi) >>> 1
        val (l, r) = Fork.join2(ForkJoinScheme)(sum(lo, mid), sum(mid, hi))
        l + r
      }
    assert(sum(0, 100000) == 100000L * 99999 / 2)
  }
}
