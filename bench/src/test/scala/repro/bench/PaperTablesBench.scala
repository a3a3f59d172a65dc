package repro.bench

import repro.SparkSpec

/** Reproduces the paper's evaluation tables at the scaled benchmark size
  * (REPRO_BENCH_N, default 10K ~ the paper's 10M ÷ 1000; see DESIGN.md §3).
  *
  * Tests run in declaration order within the suite, so Table 2 (speedups)
  * is derived from the Table 4/5 measurements of the same run, exactly as
  * the paper derives it; its second "over best sequential" column also
  * counts the Table 3 Borůvka times. Each table is printed in the paper's row/column
  * layout and persisted under bench/results/ for EXPERIMENTS.md.
  */
class PaperTablesBench extends SparkSpec {

  private val baseN = Harness.defaultBaseN
  private var emstRows: Seq[Harness.Row] = Seq.empty
  private var hdRows: Seq[Harness.Row] = Seq.empty
  private var boruvkaRows: Seq[(String, Double)] = Seq.empty

  test(s"Table 3: sequential dual-tree Boruvka EMST times (base n=$baseN)") {
    boruvkaRows = Harness.mlpackTable(baseN)
    assert(boruvkaRows.size == 12)
    assert(boruvkaRows.forall(_._2 > 0))
    Harness.report("table3_mlpack.txt", Harness.formatMlpack(boruvkaRows))
  }

  test(s"Table 4: EMST running times, 1 thread vs ${spark.sparkContext.defaultParallelism} cores") {
    emstRows = Harness.emstTable(baseN)
    // 12 data sets x 4 methods (Delaunay rows exist but are '-' off 2D).
    assert(emstRows.size == 48)
    val completed = emstRows.filter(_.seq.seconds.isDefined)
    assert(completed.nonEmpty)
    // MemoGFK must complete everywhere (the paper's only always-on method).
    assert(emstRows.filter(_.method == "EMST-MemoGFK").forall(_.seq.seconds.isDefined))
    Harness.report("table4_emst.txt", Harness.formatRows("Table 4: EMST", emstRows))
  }

  test("Table 5: HDBSCAN* running times (MST + ordered dendrogram), minPts=10") {
    hdRows = Harness.hdbscanTable(baseN, minPts = 10)
    assert(hdRows.size == 24)
    assert(hdRows.filter(_.method == "HDBSCAN*-MemoGFK").forall(_.seq.seconds.isDefined))
    Harness.report("table5_hdbscan.txt", Harness.formatRows("Table 5: HDBSCAN*", hdRows))
  }

  test("Table 2: speedup over best sequential and self-relative speedup") {
    assert(emstRows.nonEmpty && hdRows.nonEmpty && boruvkaRows.nonEmpty, "Tables 3/4/5 must run first")
    val sp = Harness.speedupTable(emstRows, hdRows, boruvkaRows)
    assert(sp.nonEmpty)
    // Shape check (not an absolute-number check): at a meaningful size the
    // parallel scheme must beat 1 thread for the always-on method. Below
    // that, per-fan-out overhead dominates sub-second runs.
    if (baseN >= 5000) {
      val memo = sp.find(_.method == "EMST-MemoGFK").get
      assert(memo.selfAvg > 1.0, s"EMST-MemoGFK self-relative speedup ${memo.selfAvg} <= 1")
    }
    Harness.report("table2_speedups.txt", Harness.formatSpeedups(sp))
  }

  test("WSPD pair-count claims (GanTao vs new definition; MemoGFK peak)") {
    val rows = Harness.pairCountTable(math.min(baseN, 5000), minPts = 10)
    assert(rows.forall(r => r.newDefPairs <= r.geoPairs))
    Harness.report("pair_counts.txt", Harness.formatPairCounts(rows))
  }
}
