package repro.perfbench

import scala.util.Random

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core.{BoolQuery, SearchResult}
import repro.exp.{Engines, Workload}

/** One query of a workload. */
sealed trait Query
final case class TopK(word: String, k: Int) extends Query
final case class Full(word: String) extends Query
final case class Bool(q: BoolQuery) extends Query
/** `word IN (words)` through the `airphant` DataSourceV2, then `collect()`. */
final case class Keywords(words: Seq[String]) extends Query

/** What a query returned. */
sealed trait Outcome
final case class InProcess(r: SearchResult) extends Outcome
final case class Rows(rows: Array[Row]) extends Outcome

/** A workload: which corpus it builds; [[Workloads.pass]] holds its queries.
  * BENCHMARK.json records why each one exists.
  */
final case class WorkloadDef(name: String, corpus: String)

object Workloads {

  val TopKHdfs: WorkloadDef = WorkloadDef("topk-hdfs", "hdfs")
  /** Runnable by name, but not in BENCHMARK.json: see perfbench/README.md. */
  val FullWindows: WorkloadDef = WorkloadDef("full-windows", "windows")
  val Dsv2Spark: WorkloadDef = WorkloadDef("dsv2-spark", "spark")

  val all: Seq[WorkloadDef] = Seq(TopKHdfs, FullWindows, Dsv2Spark)

  def byName(name: String): Option[WorkloadDef] = all.find(_.name == name)

  val K = 10
  /** Queries per pass of topk-hdfs (about three seconds of work): enough
    * draws that the share of frequent words, which make up the latency
    * tail, is steady from seed to seed.
    */
  private val TopKPass = 16384
  /** One Boolean query after every `BoolEvery` single-term queries. */
  private val BoolEvery = 8
  /** Queries per pass of dsv2-spark, four words each. */
  private val DsPass = 48

  /** One pass of the workload's queries; the same seed gives the same pass.
    *
    *  - topk-hdfs draws its words uniformly from the vocabulary, the paper's
    *    prior (`Workload.sampleWords`).
    *  - full-windows queries every vocabulary word once, in a seeded order,
    *    and after every eighth a two-term AND or OR of seeded words. An
    *    exhaustive answer costs in proportion to its word's document count,
    *    and on this corpus a handful of the 305 words hold most postings, so
    *    a uniform sample of a few hundred draws would let the number of those
    *    drawn decide the run.
    *  - dsv2-spark, and the Boolean terms of full-windows, draw uniformly from
    *    the 90% least frequent words, for the same reason: one draw of a
    *    30k-document word would outweigh the rest of a run. Frequent words
    *    still run at volume as the single terms of full-windows.
    */
  def pass(w: WorkloadDef, ex: ExactIndex, seed: Long): IndexedSeq[Query] = w match {
    case TopKHdfs =>
      Workload.sampleWords(ex.vocab, TopKPass, seed).map(TopK(_, K)).toIndexedSeq
    case FullWindows =>
      val singles = new Random(seed).shuffle(ex.vocab.toIndexedSeq)
      val nBool = singles.size / BoolEvery
      val terms = Workload.sampleWords(rare(ex), 2 * nBool, seed).map(BoolQuery.Term(_))
      val bools = terms.grouped(2).zipWithIndex.map { case (ts, i) =>
        Bool(if (i % 2 == 0) BoolQuery.And(ts) else BoolQuery.Or(ts))
      }.toIndexedSeq
      singles.zipWithIndex.flatMap { case (word, i) =>
        val b = i / BoolEvery
        Full(word) +: (if (i % BoolEvery == BoolEvery - 1 && b < nBool) Seq(bools(b)) else Nil)
      }
    case Dsv2Spark =>
      Workload.sampleWords(rare(ex), 4 * DsPass, seed).grouped(4).map(Keywords(_)).toIndexedSeq
    case other => sys.error(s"no query pass for workload ${other.name}")
  }

  /** The 90% least frequent words, sorted. */
  private def rare(ex: ExactIndex): Array[String] = {
    val byDf = ex.vocab.sortBy(v => (ex.df(v), v))
    byDf.take(byDf.length * 9 / 10).sorted
  }

  /** Run one query against the program's public API. */
  def execute(spark: SparkSession, s: Setup, q: Query): Outcome = q match {
    case TopK(w, k)   => InProcess(s.searcher.search(w, Some(k), Engines.benchConfig))
    case Full(w)      => InProcess(s.searcher.search(w, None, Engines.benchConfig))
    case Bool(b)      => InProcess(s.searcher.searchBoolean(b, Engines.benchConfig))
    case Keywords(ws) =>
      Rows(spark.read.format("airphant")
        .option("bucket", s.bucket)
        .option("header", s.built.headerBlob)
        .load()
        .filter(col("word").isin(ws: _*))
        .collect())
  }

  /** Why the answer is wrong, or None. */
  def check(ex: ExactIndex, q: Query, o: Outcome): Option[String] = (q, o) match {
    case (TopK(w, k), InProcess(r))  => ex.checkTopK(r.docs, ex.docs(w), k)
    case (Full(w), InProcess(r))     => ex.checkExact(r.docs, ex.docs(w))
    case (Bool(b), InProcess(r))     => ex.checkExact(r.docs, ex.docs(b))
    case (Keywords(ws), Rows(rows))  =>
      ex.checkRows(rows.toSeq.map(r => (r.getString(0), r.getString(1), r.getString(5))), ws)
    case _ => Some(s"unexpected outcome type for $q")
  }
}
