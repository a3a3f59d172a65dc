package repro.perf

/** Names and units of every metric the benchmark prints; BENCHMARK.json
  * lists the same names.
  */
object Metrics {

  val endToEnd: Seq[(String, String)] = Seq("seq_s" -> "s", "par_s" -> "s", "setup_s" -> "s")

  val perLayerUnits: Seq[(String, String)] = Seq(
    "kdtree.build_s" -> "s",
    "coredist.knn_seq_s" -> "s",
    "coredist.knn_par_s" -> "s",
    "memogfk.mst_seq_s" -> "s",
    "memogfk.mst_par_s" -> "s",
    "memogfk.driver_self_s" -> "s",
    "memogfk.rounds" -> "count",
    "memogfk.pairs_materialized" -> "count",
    "memogfk.peak_live_pairs" -> "count",
    "memogfk.bccp_computed" -> "count",
    "memogfk.edge_yield" -> "ratio",
    "par.jobs" -> "count",
    "par.items" -> "count",
    "par.fanout_s" -> "s",
    "par.busy_s" -> "s",
    "par.overhead_s" -> "s",
    "par.idle_frac" -> "ratio",
    "par.share_calls" -> "count",
    "par.share_s" -> "s",
    "dendrogram.seq_s" -> "s",
    "dendrogram.par_s" -> "s",
    "baseline.boruvka_s" -> "s",
    "trace.overhead_frac" -> "ratio",
  )

  def perLayer: Seq[String] = perLayerUnits.map(_._1)

  def unit(name: String): String = (endToEnd ++ perLayerUnits).toMap.apply(name)

  /** Layer metrics of one traced pipeline run under `scheme` ("seq" or
    * "par"). A stage the workload does not run reads 0. The `par.*`
    * metrics and the engine's driver self time come from the par run.
    */
  def layers(tr: Tracer, scheme: String, cores: Int): Seq[(String, Double)] = {
    def secs(ns: Long): Double = ns / 1e9
    def stage(name: String): Double = secs(tr.named(name).map(_.durNs).sum)
    val stages = Seq(
      "kdtree.build_s" -> stage("kdtree.build"),
      s"coredist.knn_${scheme}_s" -> stage("coredist"),
      s"memogfk.mst_${scheme}_s" -> stage("memogfk"),
      s"dendrogram.${scheme}_s" -> stage("dendrogram"),
    )
    if (scheme == "seq") stages
    else {
      val fanOuts = tr.spans.filter(s => TracedScheme.FanOuts(s.name))
      val shares = tr.named(TracedScheme.Share).toSeq
      val fanOutS = secs(fanOuts.map(_.durNs).sum)
      val busyS = secs(fanOuts.map(_.busyNs).sum)
      // Engine wall time minus the fan-outs and shares it issued: the
      // serial driver work between them.
      val driverSelf = tr.named("memogfk").map(m => m.durNs - tr.children(m).map(_.durNs).sum).sum
      stages ++ Seq(
        "memogfk.driver_self_s" -> secs(driverSelf),
        "par.jobs" -> fanOuts.size.toDouble,
        "par.items" -> fanOuts.map(_.items).sum.toDouble,
        "par.fanout_s" -> fanOutS,
        "par.busy_s" -> busyS,
        "par.overhead_s" -> secs(fanOuts.map(s => s.durNs - s.busiestNs).sum),
        "par.idle_frac" -> (1.0 - busyS / (cores * fanOutS)),
        "par.share_calls" -> shares.size.toDouble,
        "par.share_s" -> secs(shares.map(_.durNs).sum),
      )
    }
  }
}

/** Just enough JSON writing for the result lines; values arrive rendered. */
object Json {
  def str(s: String): String = s.flatMap {
    case '"' => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  }.mkString("\"", "", "\"")

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
    d.toString
  }

  def obj(kvs: (String, String)*): String =
    kvs.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(vs: Seq[String]): String = vs.mkString("[", ", ", "]")
}
