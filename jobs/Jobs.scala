package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench.Harness

/** spark-submit entrypoints, one per evaluation table. Each wraps the same
  * harness the bench suites use and additionally exposes the result rows as
  * a Spark DataFrame (printed and written as CSV under bench/results/).
  *
  * Usage: spark-submit --class repro.jobs.Table4Job repro.jar [baseN]
  */
object JobRunner {

  /** Obtains a session; `stop` only tears it down if this job created it
    * (so jobs can run inside a host JVM with a shared session, e.g. tests).
    */
  def session(name: String): (SparkSession, Boolean) = {
    val preexisting = SparkSession.getDefaultSession.isDefined
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer")
      .getOrCreate()
    (s, !preexisting)
  }

  def stop(spark: SparkSession, owned: Boolean): Unit = if (owned) spark.stop()

  def baseN(args: Array[String]): Int =
    args.headOption.map(_.toInt).getOrElse(Harness.defaultBaseN)

  /** Publishes timing rows as a DataFrame + CSV for downstream inspection. */
  def publish(spark: SparkSession, table: String, rows: Seq[Harness.Row]): Unit = {
    import spark.implicits._
    val df = rows
      .map(r => (r.dataset, r.method,
        r.seq.seconds.map(s => f"$s%.3f").getOrElse("-"),
        r.par.seconds.map(s => f"$s%.3f").getOrElse("-")))
      .toDF("dataset", "method", "seq_seconds", "par_seconds")
    df.show(100, truncate = false)
    df.coalesce(1).write.mode("overwrite")
      .option("header", "true")
      .csv(new java.io.File(Harness.resultsDir, s"${table}_csv").getPath)
  }
}

/** Table 2: speedups (runs the Table 4 and Table 5 workloads to derive them). */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val (spark, owned) = JobRunner.session("table2")
    val n = JobRunner.baseN(args)
    val emst = Harness.emstTable(n)
    val hd = Harness.hdbscanTable(n)
    val boruvka = Harness.mlpackTable(n)
    Harness.report("table2_speedups.txt", Harness.formatSpeedups(Harness.speedupTable(emst, hd, boruvka)))
    JobRunner.stop(spark, owned)
  }
}

/** Table 3: sequential dual-tree Boruvka comparator times. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val (spark, owned) = JobRunner.session("table3") // environment/logging parity
    val rows = Harness.mlpackTable(JobRunner.baseN(args))
    Harness.report("table3_mlpack.txt", Harness.formatMlpack(rows))
    JobRunner.stop(spark, owned)
  }
}

/** Table 4: EMST times for Naive / GFK / MemoGFK / Delaunay. */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val (spark, owned) = JobRunner.session("table4")
    val rows = Harness.emstTable(JobRunner.baseN(args))
    Harness.report("table4_emst.txt", Harness.formatRows("Table 4: EMST", rows))
    JobRunner.publish(spark, "table4", rows)
    JobRunner.stop(spark, owned)
  }
}

/** Table 5: HDBSCAN* times (MST + ordered dendrogram), minPts = 10. */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val (spark, owned) = JobRunner.session("table5")
    val rows = Harness.hdbscanTable(JobRunner.baseN(args))
    Harness.report("table5_hdbscan.txt", Harness.formatRows("Table 5: HDBSCAN*", rows))
    JobRunner.publish(spark, "table5", rows)
    JobRunner.stop(spark, owned)
  }
}
