package repro.perf

import org.apache.spark.SparkContext

import repro.baseline.DualTreeBoruvka
import repro.core.{CoreDist, Dendrogram, EmstMemoGfk, GanTao, Hdbscan, MemoGfk, MemoGfkEngine, MstStats}
import repro.geometry.{Generators, PointSet}
import repro.kdtree.KdTree
import repro.mst.{Edge, Prim}
import repro.par.{ParScheme, SeqScheme, SparkScheme}
import repro.wspd.{Ctx, EuclidMetric, GeometricSep, MutualReachMetric}

/** What one pipeline run returns: the MST, the engine's counts and, for
  * HDBSCAN*, the ordered dendrogram.
  */
final case class Outcome(edges: IndexedSeq[Edge], stats: MstStats, dendrogram: Option[Dendrogram])

/** A benchmark workload: a generated point set and the points-in → MST
  * (+ ordered dendrogram) pipeline run on it. `minPts` is None for EMST.
  */
final case class Workload(
    name: String,
    minPts: Option[Int],
    generate: Long => PointSet,
    defaultSeed: Long,
    paperCell: String,
) {

  /** The whole pipeline under `par`. The scheme also selects the
    * dendrogram builder, as `Harness.hdbscanTable` does: the sequential one
    * under `SeqScheme`, the fork-join one under the parallel scheme.
    */
  def run(ps: PointSet, par: ParScheme): Outcome = minPts match {
    case None =>
      val r = EmstMemoGfk.mst(ps, par)
      Outcome(r.edges, r.stats, None)
    case Some(k) =>
      val r = Hdbscan.mst(ps, k, MemoGfk, par)
      Outcome(r.mst.edges, r.mst.stats, Some(dendrogram(ps.n, r.mst.edges, par)))
  }

  /** The same pipeline with a span around each call into a module's public
    * function. It composes the calls `EmstMemoGfk.mst` and `Hdbscan.mst`
    * make; the benchmark checks that its edges equal the untraced ones.
    */
  def runTraced(ps: PointSet, par: ParScheme, tr: Tracer): Outcome = {
    val tp = new TracedScheme(par, tr)
    val tree = tr.stage("kdtree.build")(KdTree.build(ps))
    minPts match {
      case None =>
        val r = tr.stage("memogfk")(
          MemoGfkEngine.mst(Ctx.euclidean(tree), GeometricSep(2.0), EuclidMetric, tp))
        Outcome(r.edges, r.stats, None)
      case Some(k) =>
        val cd = tr.stage("coredist")(CoreDist.compute(tree, k, tp))
        val ctx = Ctx.mutualReach(tree, cd)
        val r = tr.stage("memogfk")(MemoGfkEngine.mst(ctx, MemoGfk.sep, MutualReachMetric, tp))
        val d = tr.stage("dendrogram")(dendrogram(ps.n, r.edges, par))
        Outcome(r.edges, r.stats, Some(d))
    }
  }

  /** Total MST weight from an independent algorithm: dual-tree Borůvka for
    * EMST; for HDBSCAN* the GanTao variant, whose classic separation gives
    * a different pair set from MemoGFK's.
    */
  def referenceWeight(ps: PointSet, par: ParScheme): Double = minPts match {
    case None => Prim.weight(DualTreeBoruvka.mst(ps))
    case Some(k) => Prim.weight(Hdbscan.mst(ps, k, GanTao, par).mst.edges)
  }

  private def dendrogram(n: Int, edges: IndexedSeq[Edge], par: ParScheme): Dendrogram =
    if (par eq SeqScheme) Dendrogram.buildSequential(n, edges, s = 0)
    else Dendrogram.buildParallel(n, edges, s = 0)
}

object Workloads {

  /** The parallel scheme of the "par" column, built in this one place. */
  def parallelScheme(sc: SparkContext): ParScheme = new SparkScheme(sc)

  /** Default seeds are those of `Generators.benchmarkSets`. */
  val all: Seq[Workload] = Seq(
    // Bound by the WSPD traversal and the BCCP kernel: 3 rounds, the last
    // holding ~95% of the edges; no k-NN, no dendrogram, few fan-outs.
    Workload("emst-7d-uniform", None,
      seed => Generators.uniformFill(10000, 7, seed), 14L,
      "Table 4, 7D-UniformFill, EMST-MemoGFK"),
    // Twelve light rounds: per-round fixed costs dominate (job launch,
    // broadcasts of the node-component array and the BCCP cache, and
    // Wspd.nodeComponents). Not in BENCHMARK.json: its time depends on the
    // seed's cluster layout (README). Runnable by name.
    Workload("hdbscan-3d-varden", Some(10),
      seed => Generators.ssVarden(50000, 3, seed), 22L,
      "Table 5, 3D-SS-varden, HDBSCAN*-MemoGFK"),
    // Large n in 2D moves the work to the per-point layers: k-NN core
    // distances, the kd-tree build, ~1M-edge round batches sorted on the
    // driver, and the dendrogram. 200K is the size at which the parallel
    // dendrogram is judged against the sequential one.
    Workload("hdbscan-2d-uniform", Some(10),
      seed => Generators.uniformFill(200000, 2, seed), 11L,
      "Table 5, 2D-UniformFill, HDBSCAN*-MemoGFK"),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
