package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.cloudstore.{CloudStorage, LocalCloudStorage, NetworkModel}
import repro.core.{Builder, Searcher}
import repro.corpus.{CorpusProfile, CorpusWriter, LogCorpusGen}
import repro.exp.Engines

/** One workload's corpus and index, built in a bucket of its own through
  * the public write path, with each stage timed.
  */
final case class Setup(
    bucket: String,
    store: BenchStore,
    docs: DataFrame,
    built: Builder.BuiltSketch,
    searcher: Searcher,
    generateWriteS: Double,
    profileS: Double,
    buildS: Double,
    searcherInitMs: Double,
    puts: Vector[Call],
) {
  /** `setup_s`: corpus generation and write, profile, build, Searcher init. */
  def totalS: Double = generateWriteS + profileS + buildS + searcherInitMs / 1e3

  def corpusBytes: Long = store.list().filter(b => BlobKind.of(b) == BlobKind.Docs).map(store.size).sum

  def close(): Unit = {
    docs.unpersist()
    CloudStorage.unregister(bucket)
  }
}

object Setup {

  /** The 1%-of-bins common-word budget of `Engines.benchConfig` sizes the
    * profile's ranked word list the same way `Corpora.materialize` does.
    */
  private val MaxTopWords = 2000

  def run(spark: SparkSession, spec: LogCorpusGen.Spec, bucket: String, rec: Recorder): Setup = {
    val store = new BenchStore(new LocalCloudStorage(NetworkModel()), rec)
    CloudStorage.register(bucket, store)
    rec.drain()
    val t0 = System.nanoTime()
    val docs = CorpusWriter.write(spark, LogCorpusGen.generate(spark, spec), bucket, spec.name)
    val t1 = System.nanoTime()
    val profile = CorpusProfile.profile(spark, docs, MaxTopWords)
    val t2 = System.nanoTime()
    val built = Builder.build(spark, docs, bucket, "airphant", Engines.benchConfig, Some(profile))
    val t3 = System.nanoTime()
    val searcher = new Searcher(store, built.headerBlob)
    val t4 = System.nanoTime()
    val calls = rec.drain()
    Setup(bucket, store, docs, built, searcher,
          (t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9, (t4 - t3) / 1e6,
          calls.filter(_.put))
  }
}
