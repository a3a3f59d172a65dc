package repro.bench

import java.io.{File, PrintWriter}

import repro.baseline.DualTreeBoruvka
import repro.core._
import repro.geometry.{Generators, PointSet}
import repro.par.{ForkJoinScheme, ParScheme, SeqScheme}

/** Benchmark harness reproducing the paper's evaluation tables (§5) at a
  * scaled-down size (paper: 10M points / 48 cores; here: `baseN` points /
  * the local core count — see DESIGN.md §3 for the substitution argument).
  *
  * Shared between the `bench/` ScalaTest suites and the spark-submit jobs
  * in `jobs/` so both produce identical rows.
  */
object Harness {

  /** Scaled data-set size: REPRO_BENCH_N overrides (paper base: 10M). */
  def defaultBaseN: Int = sys.env.getOrElse("REPRO_BENCH_N", "20000").toInt

  /** Materialized-pair budget standing in for the paper's 192 GB RAM limit:
    * cells that exceed it print "-", like the paper's OOM cells (at the
    * default scale this cuts Naive/GFK on 5D/7D-UniformFill, the same
    * cells the paper reports as "-").
    */
  def pairBudget: Long = sys.env.getOrElse("REPRO_BENCH_PAIR_BUDGET", "2000000").toLong

  /** Timed repetitions per cell; the minimum is reported (absorbs GC/JIT
    * hiccups, standard practice for sub-minute microbenchmarks).
    */
  def repeats: Int = sys.env.getOrElse("REPRO_BENCH_REPEATS", "2").toInt

  final case class Cell(seconds: Option[Double], stats: Option[MstStats]) {
    def secStr: String = seconds.map(s => f"$s%.3f").getOrElse("-")
  }

  final case class Row(dataset: String, method: String, seq: Cell, par: Cell)

  /** Times `body`, returning (seconds, result). */
  def time[T](body: => T): (Double, T) = {
    val t0 = System.nanoTime()
    val r = body
    ((System.nanoTime() - t0) / 1e9, r)
  }

  private def runGuarded(body: => MstResult): Cell =
    try {
      val runs = (1 to math.max(1, repeats)).map(_ => time(body))
      val (s, r) = runs.minBy(_._1)
      Cell(Some(s), Some(r.stats))
    } catch {
      case e: PairBudgetExceeded =>
        Console.err.println(s"  [budget] ${e.getMessage}")
        Cell(None, None)
      case e: OutOfMemoryError =>
        Console.err.println(s"  [oom] ${e.getMessage}")
        Cell(None, None)
    }

  /** The scheme of every table's "par" column. */
  val par: ParScheme = ForkJoinScheme

  /** JIT / fork-join pool warm-up so the first timed cell is not charged
    * for one-time startup costs.
    */
  def warmup(): Unit = {
    val ps = Generators.uniformFill(500, 2, 99)
    EmstMemoGfk.mst(ps, SeqScheme)
    EmstMemoGfk.mst(ps, par)
    Hdbscan.mst(ps, 5, MemoGfk, par)
    ()
  }

  /** Table 4: EMST running times, 1 thread vs parallel, for EMST-Naive,
    * EMST-GFK, EMST-MemoGFK and (2D only) EMST-Delaunay.
    */
  def emstTable(baseN: Int): Seq[Row] = {
    warmup()
    val sets = Generators.benchmarkSets(baseN)
    val methods: Seq[(String, (PointSet, ParScheme) => MstResult, PointSet => Boolean)] = Seq(
      ("EMST-Naive", (ps, p) => EmstNaive.mst(ps, p, pairBudget), _ => true),
      ("EMST-GFK", (ps, p) => EmstGfk.mst(ps, p, pairBudget), _ => true),
      ("EMST-MemoGFK", (ps, p) => EmstMemoGfk.mst(ps, p), _ => true),
      ("Delaunay", (ps, p) => EmstDelaunay.mst(ps, p), _.dim == 2),
    )
    for {
      (name, ps) <- sets
      (mName, m, applies) <- methods
    } yield {
      if (!applies(ps)) Row(name, mName, Cell(None, None), Cell(None, None))
      else {
        Console.err.println(s"[emst] $name / $mName")
        val seqCell = runGuarded(m(ps, SeqScheme))
        val parCell = if (seqCell.seconds.isDefined) runGuarded(m(ps, par)) else Cell(None, None)
        Row(name, mName, seqCell, parCell)
      }
    }
  }

  /** Table 5: HDBSCAN* running times (MST of G_MR + ordered dendrogram),
    * 1 thread vs parallel, for HDBSCAN*-MemoGFK and HDBSCAN*-GanTao.
    */
  def hdbscanTable(baseN: Int, minPts: Int = 10): Seq[Row] = {
    warmup()
    val sets = Generators.benchmarkSets(baseN)
    val methods = Seq(
      ("HDBSCAN*-MemoGFK", MemoGfk: HdbscanVariant),
      ("HDBSCAN*-GanTao", GanTao: HdbscanVariant),
    )
    for {
      (name, ps) <- sets
      (mName, variant) <- methods
    } yield {
      Console.err.println(s"[hdbscan] $name / $mName")
      def full(p: ParScheme): MstResult = {
        val r = Hdbscan.mst(ps, minPts, variant, p)
        Dendrogram.build(ps.n, r.mst.edges, 0, p)
        r.mst
      }
      val seqCell = runGuarded(full(SeqScheme))
      val parCell = runGuarded(full(par))
      Row(name, mName, seqCell, parCell)
    }
  }

  /** Table 3: the sequential dual-tree Borůvka comparator (mlpack stand-in). */
  def mlpackTable(baseN: Int): Seq[(String, Double)] =
    Generators.benchmarkSets(baseN).map { case (name, ps) =>
      Console.err.println(s"[mlpack] $name")
      val (s, mst) = time(DualTreeBoruvka.mst(ps))
      require(mst.size == ps.n - 1)
      (name, s)
    }

  /** Table 2: speedups over the best sequential method and self-relative
    * speedups, derived from the Table 4 / Table 5 measurements exactly as
    * the paper derives its Table 2. `overAll` is the same speedup over the
    * best sequential time including the dual-tree Borůvka comparator
    * (Table 3, `boruvka`); Borůvka solves only the EMST, so for HDBSCAN*
    * methods it equals `overBest`.
    */
  final case class Speedup(method: String, overBestRange: (Double, Double), overBestAvg: Double,
      overAllRange: (Double, Double), overAllAvg: Double,
      selfRange: (Double, Double), selfAvg: Double)

  def speedupTable(emst: Seq[Row], hdbscan: Seq[Row], boruvka: Seq[(String, Double)]): Seq[Speedup] = {
    def forMethod(rows: Seq[Row], method: String, comparator: Map[String, Double]): Option[Speedup] = {
      def bestSeq(dataset: String): Option[Double] =
        rows.filter(_.dataset == dataset).flatMap(_.seq.seconds).minOption
      val cells = rows.filter(_.method == method)
      def over(best: String => Option[Double]): Seq[Double] = cells.flatMap { r =>
        for (p <- r.par.seconds; b <- best(r.dataset)) yield b / p
      }
      val overBest = over(bestSeq)
      val overAll = over(d => (bestSeq(d) ++ comparator.get(d)).minOption)
      val self = cells.flatMap { r =>
        for (p <- r.par.seconds; s <- r.seq.seconds) yield s / p
      }
      if (overBest.isEmpty || self.isEmpty) None
      else Some(Speedup(method,
        (overBest.min, overBest.max), overBest.sum / overBest.size,
        (overAll.min, overAll.max), overAll.sum / overAll.size,
        (self.min, self.max), self.sum / self.size))
    }
    val emstMethods = Seq("EMST-Naive", "EMST-GFK", "EMST-MemoGFK", "Delaunay")
    val hdMethods = Seq("HDBSCAN*-MemoGFK", "HDBSCAN*-GanTao")
    emstMethods.flatMap(forMethod(emst, _, boruvka.toMap)) ++
      hdMethods.flatMap(forMethod(hdbscan, _, Map.empty))
  }

  /** §5 "MemoGFK Memory Usage" and "HDBSCAN* Results" claims: the number of
    * WSPD pairs under geometric separation (what Naive/GFK/GanTao
    * materialize) vs under the new HDBSCAN* definition (paper: 2.5–10.29x
    * fewer), plus MemoGFK's peak per-round materialization.
    */
  final case class PairCounts(dataset: String, geoPairs: Long, newDefPairs: Long,
      memoPeak: Long)

  def pairCountTable(baseN: Int, minPts: Int = 10): Seq[PairCounts] = {
    import repro.kdtree.KdTree
    import repro.wspd.{Ctx, GeometricSep, MutualUnreachableSep, Wspd}
    Generators.benchmarkSets(baseN).map { case (name, ps) =>
      Console.err.println(s"[pairs] $name")
      val tree = KdTree.build(ps)
      val cd = CoreDist.compute(tree, minPts, SeqScheme)
      val ctx = Ctx.mutualReach(tree, cd)
      val geo = Wspd.allPairs(ctx, GeometricSep(2.0), SeqScheme).size.toLong
      val nw = Wspd.allPairs(ctx, MutualUnreachableSep, SeqScheme).size.toLong
      val memo = Hdbscan.mst(ps, minPts, MemoGfk, SeqScheme).mst.stats.peakLivePairs
      PairCounts(name, geo, nw, memo)
    }
  }

  def formatPairCounts(rows: Seq[PairCounts]): String = {
    val sb = new StringBuilder
    sb.append("== WSPD pair counts (memory-usage claims) ==\n")
    sb.append(f"${"dataset"}%-26s ${"geometric"}%12s ${"new-def"}%12s ${"ratio"}%8s ${"memo-peak"}%12s\n")
    rows.foreach { r =>
      sb.append(f"${r.dataset}%-26s ${r.geoPairs}%12d ${r.newDefPairs}%12d " +
        f"${r.geoPairs.toDouble / math.max(1, r.newDefPairs)}%8.2f ${r.memoPeak}%12d\n")
    }
    sb.toString
  }

  // ----- formatting ---------------------------------------------------------

  /** Names the scheme behind every "par" number, for the table headers. */
  def parLabel: String = s"par = ${par.name}, targetTasks = ${par.targetTasks}"

  def formatRows(title: String, rows: Seq[Row]): String = {
    val methods = rows.map(_.method).distinct
    val datasets = rows.map(_.dataset).distinct
    val sb = new StringBuilder
    sb.append(s"== $title ($parLabel) ==\n")
    sb.append(f"${"dataset"}%-26s")
    methods.foreach(m => sb.append(f"| $m%-28s"))
    sb.append("\n")
    sb.append(f"${""}%-26s")
    methods.foreach(_ => sb.append(f"| ${"1thr(s)"}%-13s ${"par(s)"}%-12s"))
    sb.append("\n")
    datasets.foreach { d =>
      sb.append(f"$d%-26s")
      methods.foreach { m =>
        val r = rows.find(x => x.dataset == d && x.method == m).get
        sb.append(f"| ${r.seq.secStr}%-13s ${r.par.secStr}%-12s")
      }
      sb.append("\n")
    }
    sb.toString
  }

  def formatSpeedups(sp: Seq[Speedup]): String = {
    val sb = new StringBuilder
    sb.append(s"== Table 2: speedups on this machine ($parLabel) ==\n")
    def range(r: (Double, Double)): String = f"${r._1}%.2f-${r._2}%.2f"
    sb.append(f"${"method"}%-20s ${"over-best range"}%-20s ${"avg"}%-8s " +
      f"${"over-best+Boruvka range"}%-24s ${"avg"}%-8s ${"self range"}%-20s ${"avg"}%-8s\n")
    sp.foreach { s =>
      sb.append(f"${s.method}%-20s ${range(s.overBestRange)}%-20s ${s.overBestAvg}%-8.2f " +
        f"${range(s.overAllRange)}%-24s ${s.overAllAvg}%-8.2f " +
        f"${range(s.selfRange)}%-20s ${s.selfAvg}%-8.2f\n")
    }
    sb.toString
  }

  def formatMlpack(rows: Seq[(String, Double)]): String = {
    val sb = new StringBuilder
    sb.append("== Table 3: sequential dual-tree Boruvka (mlpack stand-in) ==\n")
    rows.foreach { case (d, s) => sb.append(f"$d%-26s $s%8.3f s\n") }
    sb.toString
  }

  /** Results directory — overridable (repro.results.dir) so smoke tests do
    * not clobber real benchmark artifacts. Anchored at the sbt build root
    * (forked test JVMs of the bench subproject start in bench/, not the
    * repo root).
    */
  def resultsDir: File = sys.props.get("repro.results.dir") match {
    case Some(d) => new File(d)
    case None =>
      var dir = new File(sys.props.getOrElse("user.dir", ".")).getAbsoluteFile
      while (dir != null && !new File(dir, "build.sbt").exists()) dir = dir.getParentFile
      val root = if (dir == null) new File(".") else dir
      // The repo root is the outermost directory with a build.sbt.
      val outer = Option(root.getParentFile)
        .filter(p => new File(p, "build.sbt").exists())
        .getOrElse(root)
      new File(new File(outer, "bench"), "results")
  }

  /** Writes `text` under the results directory and echoes it. */
  def report(fileName: String, text: String): Unit = {
    val dir = resultsDir
    dir.mkdirs()
    val pw = new PrintWriter(new File(dir, fileName))
    try pw.write(text) finally pw.close()
    println(text)
  }
}
