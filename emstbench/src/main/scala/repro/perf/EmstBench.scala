package repro.perf

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

import repro.baseline.DualTreeBoruvka
import repro.core.{Dendrogram, MstStats}
import repro.geometry.PointSet
import repro.mst.{Edge, Prim, UnionFind}
import repro.par.{ParScheme, SeqScheme}

/** The EMST / HDBSCAN* benchmark: times one workload's pipeline from a
  * generated point set to a verified result, 1 thread (`SeqScheme`) vs.
  * all cores (`Workloads.parallelScheme`), and prints one JSON result
  * line. See emstbench/README.md for the workloads and the metrics.
  *
  * Usage: EmstBench --workload NAME [--seed N] --seconds S --trace 0|1
  *        [--trace-out FILE]
  */
object EmstBench {

  /** JIT warm-up before timing: this many seq/par pairs on the first
    * `WarmupShare` of the points (README, "Warm-up").
    */
  val WarmupPairs = 2
  val WarmupShare = 0.5

  /** Relative tolerance on the total MST weight against the reference:
    * both sum the same edge weights, in a different order.
    */
  val WeightTolerance = 1e-9

  private final case class Args(
      workload: Workload,
      seed: Long,
      seconds: Int,
      trace: Boolean,
      traceOut: Option[String],
  )

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val w = args.workload

    val t0 = System.nanoTime()
    val spark = SparkSession.builder()
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("emstbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      // As the test and bench suites configure it: the fan-outs collect
      // many small Edge objects.
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer")
      .getOrCreate()
    val sparkS = secondsSince(t0)
    try {
      val par = Workloads.parallelScheme(spark.sparkContext)
      // Generating is the one repeatable part of set-up: the first session
      // start and the JIT warm-up happen once per JVM.
      val gens = (1 to 3).map(_ => time(w.generate(args.seed)))
      val ps = gens.last._2
      val (refS, refWeight) = time(w.referenceWeight(ps, par))
      log(f"reference weight $refWeight%.6f in $refS%.2f s (not in any metric)")

      val gate = new Gate(ps.n, refWeight)
      def pipeline(label: String, scheme: ParScheme): Double = {
        // Each run starts on a collected heap, whichever scheme ran before.
        System.gc()
        val (s, o) = time(w.run(ps, scheme))
        gate.check(label, scheme, o)
        log(f"$label%-14s $s%.3f s")
        s
      }
      def seqRun(label: String) = pipeline(s"$label seq", SeqScheme)
      def parRun(label: String) = pipeline(s"$label par", par)

      val (warmS, _) = time {
        val head = new PointSet(ps.coords.take((ps.n * WarmupShare).toInt * ps.dim), ps.dim)
        (0 until WarmupPairs).foreach { i =>
          alternate(i)(w.run(head, SeqScheme), w.run(head, par))
        }
      }
      log(f"set-up: session $sparkS%.2f s, warm-up $warmS%.2f s")
      val setupS = sparkS + median(gens.map(_._1)) + warmS

      val metrics: Seq[(String, Double)] =
        if (!args.trace) {
          val seqT, parT = mutable.ArrayBuffer.empty[Double]
          loopFor(args.seconds)(i => alternate(i)(seqT += seqRun("timed"), parT += parRun("timed")))
          Seq("seq_s" -> median(seqT), "par_s" -> median(parT), "setup_s" -> setupS)
        } else traced(args, w, ps, par, gate, seqRun, parRun)

      val config = Json.obj(
        "workload" -> Json.str(w.name), "paper_cell" -> Json.str(w.paperCell),
        "n" -> ps.n.toString, "dim" -> ps.dim.toString, "seed" -> args.seed.toString,
        "minPts" -> w.minPts.fold("null")(_.toString), "trace" -> args.trace.toString,
        "seconds" -> args.seconds.toString, "warmup_pairs" -> WarmupPairs.toString,
        "nproc" -> Runtime.getRuntime.availableProcessors.toString,
        "mem_total_kb" -> memTotalKb.fold("null")(_.toString),
        "xmx" -> Json.str(jvmFlag("-Xmx")), "max_heap_bytes" -> Runtime.getRuntime.maxMemory.toString,
        "jdk" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}"),
        "spark_version" -> Json.str(spark.version), "master" -> Json.str(spark.sparkContext.master),
        "par_scheme" -> Json.str(par.name), "par_target_tasks" -> par.targetTasks.toString,
        "reference_weight" -> Json.num(refWeight), "spark_start_s" -> Json.num(sparkS),
        "warmup_s" -> Json.num(warmS),
      )
      println(Json.obj("config" -> config))
      println(Json.obj(
        "correct" -> (gate.failed == 0).toString,
        "attempted" -> gate.attempted.toString,
        "failed" -> gate.failed.toString,
        "metrics" -> Json.obj(metrics.map { case (k, v) =>
          k -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(Metrics.unit(k)))
        }: _*),
      ))
    } finally spark.stop()
  }

  /** The traced run: per iteration, one untraced and one traced pipeline
    * per scheme, and one dual-tree Borůvka EMST. Layers are timed by spans
    * around the calls into each module (see `Workload.runTraced`).
    */
  private def traced(
      args: Args,
      w: Workload,
      ps: PointSet,
      par: ParScheme,
      gate: Gate,
      seqRun: String => Double,
      parRun: String => Double,
  ): Seq[(String, Double)] = {
    val cores = Runtime.getRuntime.availableProcessors
    val untraced = mutable.Map("seq" -> mutable.ArrayBuffer.empty[Double], "par" -> mutable.ArrayBuffer.empty[Double])
    val tracedWall = mutable.Map("seq" -> mutable.ArrayBuffer.empty[Double], "par" -> mutable.ArrayBuffer.empty[Double])
    val layers = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
    val boruvka = mutable.ArrayBuffer.empty[Double]
    val kept = mutable.Map.empty[String, (Tracer, MstStats)]

    def tracedRun(scheme: String): Unit = {
      val tr = new Tracer
      System.gc()
      val p = if (scheme == "seq") SeqScheme else par
      val (s, o) = time(w.runTraced(ps, p, tr))
      gate.check(s"traced $scheme", p, o)
      log(f"traced $scheme%-7s $s%.3f s")
      tracedWall(scheme) += s
      Metrics.layers(tr, scheme, cores).foreach { case (k, v) => layers.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += v }
      kept(scheme) = (tr, o.stats)
    }
    def both(scheme: String, tracedFirst: Boolean): Unit = {
      val plain = () => untraced(scheme) += (if (scheme == "seq") seqRun("untraced") else parRun("untraced"))
      if (tracedFirst) { tracedRun(scheme); plain() } else { plain(); tracedRun(scheme) }
    }

    loopFor(args.seconds) { i =>
      alternate(i)(both("seq", tracedFirst = i % 2 == 1), both("par", tracedFirst = i % 2 == 1))
      boruvka += time(DualTreeBoruvka.mst(ps))._1
    }

    val st = kept("par")._2
    val sum = (m: mutable.Map[String, mutable.ArrayBuffer[Double]]) => median(m("seq")) + median(m("par"))
    val out = layers.toSeq.map { case (k, vs) => k -> median(vs) } ++ Seq(
      "memogfk.rounds" -> st.rounds.toDouble,
      "memogfk.pairs_materialized" -> st.pairsMaterialized.toDouble,
      "memogfk.peak_live_pairs" -> st.peakLivePairs.toDouble,
      "memogfk.bccp_computed" -> st.bccpComputed.toDouble,
      "memogfk.edge_yield" -> (ps.n - 1).toDouble / st.pairsMaterialized,
      "baseline.boruvka_s" -> median(boruvka),
      "trace.overhead_frac" -> (sum(tracedWall) / sum(untraced) - 1.0),
    )
    val metrics = Metrics.perLayer.map(k => k -> out.toMap.getOrElse(k, 0.0))
    args.traceOut.foreach(f => writeTrace(f, w, args.seed, metrics, kept))
    metrics
  }

  /** Writes the per-layer metrics and, for the last traced run of each
    * scheme, its `MstStats` and its spans as JSON.
    */
  private def writeTrace(file: String, w: Workload, seed: Long, metrics: Seq[(String, Double)],
      kept: mutable.Map[String, (Tracer, MstStats)]): Unit = {
    def spans(tr: Tracer): String = Json.arr(tr.spans.toSeq.map { s =>
      Json.obj("id" -> s.id.toString, "parent" -> s.parent.toString, "name" -> Json.str(s.name),
        "start_ms" -> Json.num((s.startNs - tr.spans.head.startNs) / 1e6),
        "dur_ms" -> Json.num(s.durNs / 1e6), "items" -> s.items.toString,
        "busy_ms" -> Json.num(s.busyNs / 1e6), "busiest_ms" -> Json.num(s.busiestNs / 1e6))
    })
    val pw = new PrintWriter(new File(file))
    try pw.println(Json.obj(
      "workload" -> Json.str(w.name), "seed" -> seed.toString,
      "metrics" -> Json.obj(metrics.map { case (k, v) => k -> Json.num(v) }: _*),
      "runs" -> Json.obj(kept.toSeq.sortBy(_._1).map { case (k, (tr, st)) =>
        k -> Json.obj(
          "mst_stats" -> Json.obj("rounds" -> st.rounds.toString,
            "pairs_materialized" -> st.pairsMaterialized.toString,
            "peak_live_pairs" -> st.peakLivePairs.toString, "bccp_computed" -> st.bccpComputed.toString),
          "spans" -> spans(tr))
      }: _*),
    ))
    finally pw.close()
  }

  /** Runs `body(0)`, `body(1)`, ... while one more iteration, taken to last
    * as long as the previous one, still ends within `seconds`; at least once.
    */
  private def loopFor(seconds: Double)(body: Int => Unit): Unit = {
    val start = System.nanoTime()
    var i = 0
    var last = 0.0
    while (i == 0 || secondsSince(start) + last <= seconds) {
      last = time(body(i))._1
      i += 1
    }
  }

  /** Runs `a` then `b` on even iterations and `b` then `a` on odd ones, so
    * neither side always runs on a heap the other one dirtied.
    */
  private def alternate(i: Int)(a: => Unit, b: => Unit): Unit =
    if (i % 2 == 0) { a; b } else { b; a }

  private def time[T](body: => T): (Double, T) = {
    val t0 = System.nanoTime()
    val r = body
    (secondsSince(t0), r)
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Iterable[Double]): Double = {
    val s = xs.toIndexedSeq.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def log(msg: String): Unit = Console.err.println(s"[emstbench] $msg")

  private def jvmFlag(prefix: String): String =
    ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(_.startsWith(prefix))
      .lastOption.getOrElse("(default)")

  private def memTotalKb: Option[Long] = {
    val f = new File("/proc/meminfo")
    if (!f.exists) None
    else {
      val src = scala.io.Source.fromFile(f)
      try src.getLines().collectFirst {
        case l if l.startsWith("MemTotal:") => l.split("\\s+")(1).toLong
      } finally src.close()
    }
  }

  private def parse(argv: Array[String]): Args = {
    def fail(msg: String): Nothing = {
      Console.err.println(s"emstbench: $msg\nusage: EmstBench --workload " +
        s"${Workloads.all.map(_.name).mkString("|")} [--seed N] --seconds S --trace 0|1 " +
        "[--trace-out FILE]")
      sys.exit(2)
    }
    val kv = mutable.Map.empty[String, String]
    var i = 0
    while (i < argv.length) {
      argv(i) match {
        case k if k.startsWith("--") && i + 1 < argv.length => kv(k) = argv(i + 1); i += 2
        case other => fail(s"unexpected argument '$other'")
      }
    }
    def int(k: String): Option[Long] = kv.get(k).map(v => v.toLongOption.getOrElse(fail(s"$k wants a number, got '$v'")))
    val w = kv.get("--workload").flatMap(Workloads.byName).getOrElse(fail("--workload missing or unknown"))
    val seconds = int("--seconds").getOrElse(fail("--seconds missing"))
    val trace = int("--trace").getOrElse(0L)
    if (trace != 0 && trace != 1) fail("--trace must be 0 or 1")
    Args(w, int("--seed").getOrElse(w.defaultSeed), seconds.toInt, trace == 1, kv.get("--trace-out"))
  }
}

/** The correctness gate every pipeline run passes through. The first run
  * that spans and matches the reference weight becomes the canon; every
  * later run, seq or par, traced or not, must reproduce its edge multiset
  * and, for HDBSCAN*, its dendrogram node for node. Every run must also
  * reproduce the `MstStats` counts of the first run under its scheme. The
  * counts may differ between schemes, because the WSPD frontier is split
  * into `targetTasks` tasks. Equal counts hold the traced pipeline to the
  * calls the untraced one makes: a different separation or metric changes
  * the pair counts even where it leaves the MST alone.
  */
final class Gate(n: Int, refWeight: Double) {
  var attempted = 0
  var failed = 0
  private var canon: Array[Edge] = _
  private val canonStats = mutable.Map.empty[String, MstStats]
  private var canonDendrogram: Option[Dendrogram] = None

  def check(label: String, scheme: ParScheme, o: Outcome): Unit = {
    attempted += 1
    problem(scheme.name, o).foreach { why =>
      failed += 1
      Console.err.println(s"[emstbench] GATE FAILED ($label): $why")
    }
  }

  private def problem(scheme: String, o: Outcome): Option[String] = {
    val w = Prim.weight(o.edges)
    if (o.edges.size != n - 1) Some(s"${o.edges.size} edges for n=$n")
    else if (!spans(o.edges)) Some("the edges contain a cycle")
    else if (math.abs(w - refWeight) > EmstBench.WeightTolerance * math.max(1.0, math.abs(refWeight)))
      Some(s"weight $w != reference $refWeight")
    else if (o.stats != canonStats.getOrElseUpdate(scheme, o.stats))
      Some(s"${o.stats} differs from the first $scheme run's ${canonStats(scheme)}")
    else if (canon == null) { canon = Gate.canonical(o.edges); canonDendrogram = o.dendrogram; None }
    else if (!Gate.canonical(o.edges).sameElements(canon)) Some("edge multiset differs from the first run")
    else if (!sameDendrogram(o.dendrogram, canonDendrogram)) Some("dendrogram differs from the first run")
    else None
  }

  private def spans(edges: IndexedSeq[Edge]): Boolean = {
    val uf = new UnionFind(n)
    edges.forall(e => uf.union(e.u, e.v))
  }

  private def sameDendrogram(x: Option[Dendrogram], y: Option[Dendrogram]): Boolean = (x, y) match {
    case (None, None) => true
    case (Some(a), Some(b)) =>
      a.n == b.n && a.root == b.root && a.left.sameElements(b.left) &&
        a.right.sameElements(b.right) && a.weight.sameElements(b.weight)
    case _ => false
  }
}

object Gate {
  /** Edges with `u <= v`, sorted by `Edge.ordering`: equal arrays mean
    * equal multisets.
    */
  def canonical(edges: IndexedSeq[Edge]): Array[Edge] =
    edges.map(e => if (e.u <= e.v) e else Edge(e.v, e.u, e.w)).sorted(Edge.ordering).toArray
}
