package repro.baselines

import java.io.ByteArrayOutputStream

import repro.cloudstore.{CloudStorage, FetchLedger, RangeReq}
import repro.core.{BinPointer, DocFetcher, Posting, PostingsCodec, SearchResult}

/** Lucene-like baseline: a skip-list term index persisted on cloud
  * storage (§II-A: Lucene's term index is a skip list; §V-B0c attributes
  * its cloud slowness to "dependent sequential reads, i.e. reads whose
  * locations depend on decisions in preceding reads").
  *
  * Terms are sorted into leaf blocks; each upper level indexes every
  * `fanout`-th block of the level below; only the topmost level lives in
  * memory after initialization. A lookup therefore descends one level per
  * *sequential* round trip — exactly the access pattern the paper blames —
  * then reads the postings list, then runs the shared document-retrieval
  * routine.
  */
final class SkipListIndex(
    store: CloudStorage,
    built: ExactPostings.Built,
    bucket: String,
    prefix: String,
    leafBlockSize: Int = 256,
    fanout: Int = 32,
    cacheBlocks: Int = 8,
) extends SearchEngine {
  require(leafBlockSize >= 2 && fanout >= 2 && cacheBlocks >= 0)

  override def name: String = "Lucene-like (skip list)"

  // ---- build (driver-side; the dictionary is collected already) ---------

  /** levelBlobs(k) holds level k's blocks, each an entry list; level 0 =
    * leaves of (term, postings pointer), upper levels hold (first term,
    * pointer to the block in the level below).
    */
  private val (levelBlobs: Vector[String], topEntries: Vector[(String, BinPointer)]) = {
    val blobs = Vector.newBuilder[String]

    /** Write one level's blocks into one blob; returns each block's entry
      * for the level above. The pointer's block field is unused: a level
      * is one blob.
      */
    def writeLevel(level: Int, blocks: Seq[Seq[(String, BinPointer)]]): Vector[(String, BinPointer)] = {
      val buf = new ByteArrayOutputStream()
      val entries = blocks.map { es =>
        val start = buf.size()
        PostingsCodec.writeEntries(buf, es)
        (es.head._1, BinPointer(0, start, buf.size() - start))
      }.toVector
      val blobName = s"$prefix/skiplist-$level"
      store.put(blobName, buf.toByteArray)
      blobs += blobName
      entries
    }

    val leaves = built.words.toSeq.map(w => (w, built.pointers(w)))
    var entries = writeLevel(0, leaves.grouped(leafBlockSize).toSeq)
    // Upper levels until the directory fits in memory.
    var level = 1
    while (entries.size > fanout) {
      entries = writeLevel(level, entries.grouped(fanout).toSeq)
      level += 1
    }
    (blobs.result(), entries)
  }

  // ---- lookup ------------------------------------------------------------

  /** Small LRU of term-dictionary blocks — models the OS page cache a
    * locally run Lucene enjoys; sized well below the dictionary at bench
    * scale so large corpora still pay the dependent reads.
    */
  private val blockCache =
    new java.util.LinkedHashMap[(Int, Long), Vector[(String, BinPointer)]](16, 0.75f, true) {
      override def removeEldestEntry(
          e: java.util.Map.Entry[(Int, Long), Vector[(String, BinPointer)]]): Boolean =
        size() > cacheBlocks
    }

  /** Drop cached dictionary blocks (fresh-VM condition). */
  def clearCache(): Unit = blockCache.clear()

  private def readBlock(level: Int, p: BinPointer, ledger: FetchLedger): Vector[(String, BinPointer)] = {
    val key = (level, p.offset.toLong)
    val hit = blockCache.get(key)
    if (hit != null) return hit
    val bytes = store.getRange(RangeReq(levelBlobs(level), p.offset.toLong, p.length), ledger)
    val entries = new PostingsCodec.Reader(bytes).readEntries()
    if (cacheBlocks > 0) blockCache.put(key, entries)
    entries
  }

  override def lookup(word: String, ledger: FetchLedger): IndexedSeq[Posting] = {
    // Descend from the in-memory top directory: ONE dependent range read
    // per level (modulo cache hits), then the postings read.
    var level = levelBlobs.size - 1
    var entries = topEntries
    while (level >= 0) {
      val i = ExactPostings.floorIndex(entries.map(_._1), word)
      entries = readBlock(level, entries(i)._2, ledger)
      level -= 1
    }
    entries.find(_._1 == word) match {
      case None => Vector.empty
      case Some((_, ptr)) => PostingsCodec.decode(store.getRange(built.rangeReq(ptr), ledger))
    }
  }

  override def search(word: String, topK: Option[Int]): SearchResult =
    DocFetcher.search(store, built.docBlobs, DocFetcher.wordPredicate(word), topK,
                      f0 = 0.0, delta = 1e-6)(lookup(word, _))

  override def indexBytes: Long =
    levelBlobs.map(store.size).sum + built.bytesOf(store)
}
