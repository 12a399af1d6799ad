package repro.baselines

import repro.cloudstore.{CloudStorage, FetchLedger}
import repro.core.{Builder, IoUConfig, Posting, Searcher, SearchResult}

/** AIRPHANT itself, behind the common engine interface. Built with
  * `layersOverride = Some(1)` it is the naïve hash table baseline, which is
  * "equivalent to IoU Sketch with the only exception that it has a single
  * layer L=1. Other relevant configurations such as the total number of
  * bins and common word bins are identical" (§V-A0b).
  */
final class AirphantEngine(
    store: CloudStorage,
    val built: Builder.BuiltSketch,
    config: IoUConfig,
    waitLayers: Option[Int] = None,
) extends SearchEngine {

  /** The underlying Searcher (initializes: one header fetch). */
  val searcher = new Searcher(store, built.headerBlob, waitLayers)

  override def name: String =
    if (config.layersOverride.contains(1)) "HashTable (IoU, L=1)" else "Airphant (IoU Sketch)"

  override def lookup(word: String, ledger: FetchLedger): IndexedSeq[Posting] =
    searcher.lookup(word, ledger)

  override def search(word: String, topK: Option[Int]): SearchResult =
    searcher.search(word, topK, config)

  override def indexBytes: Long = built.indexBytes
}
