package repro.perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}

/** Benchmark entry point (launched by `perfbench/run.py`):
  *
  *   Main --workload NAME --seed N --seconds S --trace 0|1 --out DIR
  *
  * Runs one workload and writes `DIR/<workload>-seed<N>-trace<0|1>.json`
  * (fingerprint, samples, every metric, correctness counts) and, when
  * tracing, the spans next to it as `….spans.json`.
  */
object Main {

  final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path)

  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Options(
      workload = need("workload"),
      seed = need("seed").toLong,
      seconds = need("seconds").toDouble,
      trace = need("trace") match {
        case "0" => false
        case "1" => true
        case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
      },
      out = Paths.get(need("out"))
    )
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val workload = Workload.byName(opts.workload)
    Files.createDirectories(opts.out)
    val tracer = new Tracer(opts.trace)
    val run = new BenchRun(workload, opts.seed, opts.seconds, tracer, opts.out.resolveSibling("spark"))
    run.run()

    val stem = s"${workload.name}-seed${opts.seed}-trace${if (opts.trace) 1 else 0}"
    if (opts.trace) write(opts.out.resolve(s"$stem.spans.json"), tracer.toJson)
    val record = Json.obj(
      "workload" -> workload.name,
      "r" -> workload.r,
      "s" -> workload.s,
      "graph" -> workload.graph.label,
      "seed" -> opts.seed,
      "trace" -> opts.trace,
      "threads" -> run.threads,
      "host_steal_share" -> run.stealShare,
      "fingerprint" -> Json.Raw(Json.obj(run.fingerprint.fields: _*)),
      "reference_digest" -> run.reference.toString,
      "setup_s_samples" -> run.setupS.toSeq,
      "decompose_ms_samples" -> run.decomposeMs.toSeq,
      "attempted" -> run.attempted,
      "failed" -> run.failed,
      "metrics" -> Json.Raw(
        run.metrics.toSeq
          .map { case (k, v, u) => Json.str(k) + ": " + Json.obj("value" -> v, "unit" -> u) }
          .mkString("{", ", ", "}"))
    )
    write(opts.out.resolve(s"$stem.json"), record + "\n")

    println(s"workload ${workload.name} (${workload.r},${workload.s}) on ${workload.graph.label}, seed ${opts.seed}, " +
      s"${run.threads} threads")
    println(s"  input: ${run.fingerprint.fields.map { case (k, v) => s"$k=$v" }.mkString(" ")}")
    println(f"  host CPU steal during the decompose window: ${100 * run.stealShare}%.1f%%")
    println(f"  decompose_failed ${run.failed}%d of ${run.attempted}%d checked calls " +
      f"(${run.decomposeMs.size}%d timed samples)")
    run.metrics.toSeq.foreach { case (k, v, u) => println(f"  $k%-28s $v%14.4f $u") }
    println(s"RECORD ${opts.out.resolve(s"$stem.json")}")
  }

  private def write(p: Path, s: String): Unit = Files.write(p, s.getBytes(UTF_8))
}
