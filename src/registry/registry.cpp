#include "registry/registry.hpp"

#include <algorithm>
#include <mutex>
#include <set>

#include "store/disk.hpp"

namespace comt::registry {
namespace {

std::string make_reference(std::string_view name, std::string_view tag) {
  return std::string(name) + ":" + std::string(tag);
}

}  // namespace

Status Registry::attach(std::shared_ptr<store::KvStore> backend) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  COMT_TRY_STATUS(store_.attach(std::move(backend)));
  // The store's index (just merged from the backend) is the authority; the
  // reference map is a view over it.
  references_.clear();
  for (const auto& [reference, digest] : store_.index_entries()) {
    references_[reference] = digest;
  }
  return Status::success();
}

Status Registry::open_directory(const std::string& directory) {
  return attach(std::make_shared<store::DiskStore>(
      directory, store::DiskStore::Options{/*framed=*/false}));
}

void Registry::enable_chunk_dedup(std::shared_ptr<transfer::ChunkStore> chunks) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  chunks_ = std::move(chunks);
  // Forward this registry's observer, but never clobber wiring the caller
  // already did (the fleet attaches its shared metrics before handing over).
  if (chunks_ != nullptr && (tracer_ != nullptr || metrics_ != nullptr)) {
    chunks_->set_observer(tracer_, metrics_);
  }
}

void Registry::set_observer(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  if (chunks_ != nullptr) chunks_->set_observer(tracer, metrics);
  if (metrics == nullptr) {
    pulls_ = pushes_ = gcs_ = fscks_ = pulled_bytes_ = pushed_bytes_ = nullptr;
    return;
  }
  pulls_ = &metrics->counter("registry.pulls");
  pushes_ = &metrics->counter("registry.pushes");
  gcs_ = &metrics->counter("registry.gcs");
  fscks_ = &metrics->counter("registry.fscks");
  pulled_bytes_ = &metrics->counter("registry.pulled_bytes");
  pushed_bytes_ = &metrics->counter("registry.pushed_bytes");
}

Status Registry::ingest_blob_locked(const oci::Layout& source, const oci::Descriptor& blob,
                                    ImageDeltaReport* report, obs::SpanId parent) {
  if (report != nullptr) ++report->blobs_total;
  if (store_.has_blob(blob.digest)) {
    // Whole-blob reuse is chunk reuse too: every chunk of a blob the
    // registry already holds was saved from the wire, and Stats should say
    // so even for plain push (the service's rebuild pushes live here).
    if (chunks_ != nullptr) {
      auto held_manifest = chunks_->manifest(blob.digest.value);
      if (held_manifest.ok()) {
        transfer_.chunks_reused += held_manifest.value()->chunks.size();
        transfer_.chunk_bytes_deduped += held_manifest.value()->total_size;
      } else {
        // A blob pushed before dedup was enabled has no manifest yet:
        // chunk it now so later pushes reuse it and can name the image it
        // belongs to as a base. Bytes that no longer match their digest
        // are left for fsck: their chunks would be filed under the hash of
        // the damaged bytes, where no sweep reaches them.
        COMT_TRY(oci::SharedBlob held, store_.share_blob(blob.digest));
        if (held.verify(blob.digest).ok()) COMT_TRY_STATUS(chunks_->put_blob(held.bytes()));
      }
    }
    if (report != nullptr) {
      report->image_bytes += blob.size;
      report->bytes_deduped += blob.size;
      ++report->blobs_reused;
    }
    return Status::success();
  }
  COMT_TRY(oci::SharedBlob content, source.share_blob(blob.digest));
  // Checked before any chunk is written: a local blob whose bytes do not
  // match its digest is refused, and the reference is never written.
  COMT_TRY_STATUS(content.verify(blob.digest));
  const std::uint64_t size = content.bytes().size();
  std::uint64_t moved = size;
  if (chunks_ != nullptr) {
    // The chunk store is the distribution substrate: only the chunks it is
    // missing count as transferred, whatever the blob-level picture says.
    COMT_TRY(transfer::DeltaReport delta,
             transfer::push_delta(content.bytes(), {}, *chunks_, parent));
    moved = delta.bytes_moved;
    transfer_.chunk_bytes_moved += delta.bytes_moved;
    transfer_.chunk_bytes_deduped += delta.bytes_deduped;
    transfer_.chunks_moved += delta.chunks_moved;
    transfer_.chunks_reused += delta.chunks_reused;
    if (report != nullptr) {
      report->bytes_deduped += delta.bytes_deduped;
      report->chunks_moved += delta.chunks_moved;
      report->chunks_reused += delta.chunks_reused;
    }
  }
  if (report != nullptr) {
    ++report->blobs_moved;
    report->image_bytes += size;
    report->bytes_moved += moved;
  }
  transfer_.pushed_bytes += moved;
  return store_.adopt_blob(blob, std::move(content));
}

Status Registry::ingest_manifest_locked(const oci::Layout& source, const oci::Digest& digest,
                                        ImageDeltaReport* report) {
  COMT_TRY(oci::SharedBlob manifest, source.share_blob(digest));
  COMT_TRY_STATUS(manifest.verify(digest));
  const std::uint64_t size = manifest.bytes().size();
  if (report != nullptr) {
    ++report->blobs_total;
    report->image_bytes += size;
  }
  if (!store_.has_blob(digest)) {
    transfer_.pushed_bytes += size;
    if (report != nullptr) {
      report->bytes_moved += size;
      ++report->blobs_moved;
    }
  } else if (report != nullptr) {
    report->bytes_deduped += size;
    ++report->blobs_reused;
  }
  // Adopted even when held: re-storing the true bytes heals a manifest an
  // earlier torn push left truncated under this digest.
  return store_.adopt_blob(oci::Descriptor{std::string(oci::kMediaTypeManifest), digest, size, {}},
                           std::move(manifest));
}

Status Registry::push(const oci::Layout& source, std::string_view local_tag,
                      std::string_view name, std::string_view tag, const PushOptions& options) {
  if (!options.bases.empty() && chunks_ == nullptr) {
    return make_error(Errc::unsupported, "registry: chunk dedup not enabled");
  }
  const std::string reference = make_reference(name, tag);
  obs::Span span = obs::maybe_span(tracer_, "registry.push", options.parent, "blob-push");
  span.annotate("image", reference);
  if (faults_ != nullptr) COMT_TRY_STATUS(faults_->check(kPushFaultSite));
  COMT_TRY(oci::Image image, source.find_image(local_tag));
  std::unique_lock<std::shared_mutex> lock(mutex_);
  ImageDeltaReport* report = options.report;
  if (report != nullptr) {
    *report = ImageDeltaReport{};
    report->reference = reference;
    // A base that was never pushed (or lost its manifest) does not count;
    // the per-chunk probes keep the transfer correct regardless.
    report->full_push = std::none_of(
        options.bases.begin(), options.bases.end(), [&](const std::string& base) {
          auto it = references_.find(base);
          return it != references_.end() && store_.load_image(it->second).ok();
        });
  }
  const std::uint64_t pushed_before = transfer_.pushed_bytes;
  COMT_TRY_STATUS(ingest_blob_locked(source, image.manifest.config, report, span.id()));
  for (const oci::Descriptor& layer : image.manifest.layers) {
    COMT_TRY_STATUS(ingest_blob_locked(source, layer, report, span.id()));
  }
  COMT_TRY_STATUS(ingest_manifest_locked(source, image.manifest_digest, report));
  // Mirror the reference into the store's index so oci::fsck on the backing
  // layout sees which blobs are reachable from which repository. A failed
  // index write fails the push before the reference is published.
  COMT_TRY_STATUS(store_.tag_manifest(reference, image.manifest_digest));
  references_[reference] = image.manifest_digest;
  if (pushes_ != nullptr) {
    pushes_->add();
    pushed_bytes_->add(transfer_.pushed_bytes - pushed_before);
  }
  span.annotate("bytes", transfer_.pushed_bytes - pushed_before);
  return Status::success();
}

Status Registry::pull(std::string_view name, std::string_view tag, oci::Layout& destination,
                      std::string_view local_tag, const PullOptions& options) const {
  if (options.local_chunks != nullptr && chunks_ == nullptr) {
    return make_error(Errc::unsupported, "registry: chunk dedup not enabled");
  }
  const std::string reference = make_reference(name, tag);
  obs::Span span = obs::maybe_span(tracer_, "registry.pull", options.parent, "pull");
  span.annotate("image", reference);
  if (faults_ != nullptr) COMT_TRY_STATUS(faults_->check(kPullFaultSite));
  ImageDeltaReport report;
  report.reference = reference;
  transfer::DeltaReport chunked;  // what the chunk route moved, over all its blobs
  oci::Image image;
  // Each blob the destination lacks, the hub's buffer or the bytes the chunk
  // route reassembled, and last the hub's manifest buffer.
  std::vector<std::pair<oci::Descriptor, oci::SharedBlob>> fetched;
  {
    // Reader lock, held only to resolve, load and fetch: the digest checks
    // run after it is released, so a push never waits for them (the chunk
    // route's reassembly checks its blob once under it, and the manifest is
    // checked under it before it is parsed).
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = references_.find(reference);
    if (it == references_.end()) {
      return make_error(Errc::not_found, "registry: no such image " + reference);
    }
    // A proof hit for a manifest the hub took in; a rotten one fails the
    // pull here, before anything moves.
    COMT_TRY(oci::SharedBlob manifest, store_.share_blob(it->second));
    COMT_TRY_STATUS(manifest.verify(it->second));
    COMT_TRY(image, store_.load_image(it->second));
    auto fetch = [&](const oci::Descriptor& blob) -> Status {
      ++report.blobs_total;
      report.image_bytes += blob.size;
      const bool held = destination.has_blob(blob.digest) ||
                        std::any_of(fetched.begin(), fetched.end(), [&](const auto& entry) {
                          return entry.first.digest == blob.digest;
                        });
      if (held) {
        report.bytes_deduped += blob.size;
        ++report.blobs_reused;
        return Status::success();
      }
      ++report.blobs_moved;
      if (options.local_chunks == nullptr || !chunks_->contains_blob(blob.digest.value)) {
        COMT_TRY(oci::SharedBlob shared, store_.share_blob(blob.digest));
        report.bytes_moved += shared.bytes().size();
        fetched.emplace_back(blob, std::move(shared));
        return Status::success();
      }
      std::string bytes;
      auto delta = transfer::pull_delta(*chunks_, blob.digest.value, *options.local_chunks,
                                        &bytes, span.id());
      if (!delta.ok()) {
        return make_error(delta.error().code,
                          "registry: pulling " + blob.digest.value + ": " + delta.error().message);
      }
      chunked.bytes_moved += delta.value().bytes_moved;
      chunked.bytes_deduped += delta.value().bytes_deduped;
      chunked.chunks_moved += delta.value().chunks_moved;
      chunked.chunks_reused += delta.value().chunks_reused;
      report.bytes_moved += delta.value().bytes_moved;
      report.bytes_deduped += delta.value().bytes_deduped;
      report.chunks_moved += delta.value().chunks_moved;
      report.chunks_reused += delta.value().chunks_reused;
      // pull_delta proved the reassembled bytes against this digest.
      fetched.emplace_back(blob, oci::SharedBlob(std::move(bytes), blob.digest));
      return Status::success();
    };
    COMT_TRY_STATUS(fetch(image.manifest.config));
    for (const oci::Descriptor& layer : image.manifest.layers) COMT_TRY_STATUS(fetch(layer));
    // Adopted after every blob it names, and as it is: the destination gets
    // the hub's bytes, digest and parse, not a re-serialization.
    const std::uint64_t manifest_size = manifest.bytes().size();
    fetched.emplace_back(oci::Descriptor{std::string(oci::kMediaTypeManifest), it->second,
                                         manifest_size, {}},
                         std::move(manifest));
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    transfer_.pulled_bytes += report.bytes_moved;
    transfer_.chunk_bytes_moved += chunked.bytes_moved;
    transfer_.chunk_bytes_deduped += chunked.bytes_deduped;
    transfer_.chunks_moved += chunked.chunks_moved;
    transfer_.chunks_reused += chunked.chunks_reused;
  }
  // Every fetched blob is checked before any is adopted: a damaged hub blob
  // fails the pull as Errc::corrupt and leaves the destination as it was. A
  // buffer the hub proved when it took it in, or the chunk route proved
  // when it reassembled it, is not hashed again.
  for (auto& [blob, shared] : fetched) COMT_TRY_STATUS(shared.verify(blob.digest));
  for (auto& [blob, shared] : fetched) {
    COMT_TRY_STATUS(destination.adopt_blob(blob, std::move(shared)));
  }
  COMT_TRY_STATUS(destination.tag_manifest(local_tag, image.manifest_digest));
  if (pulls_ != nullptr) {
    pulls_->add();
    pulled_bytes_->add(report.bytes_moved);
  }
  span.annotate("bytes", report.bytes_moved);
  if (options.report != nullptr) *options.report = std::move(report);
  return Status::success();
}

bool Registry::has(std::string_view name, std::string_view tag) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return references_.count(make_reference(name, tag)) != 0;
}

Result<oci::Digest> Registry::resolve(std::string_view name, std::string_view tag) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = references_.find(make_reference(name, tag));
  if (it == references_.end()) {
    return make_error(Errc::not_found, "registry: no such image " + make_reference(name, tag));
  }
  return it->second;
}

std::vector<std::string> Registry::list() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(references_.size());
  for (const auto& [reference, digest] : references_) out.push_back(reference);
  return out;
}

Status Registry::remove(std::string_view name, std::string_view tag) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = references_.find(make_reference(name, tag));
  if (it == references_.end()) {
    return make_error(Errc::not_found, "registry: no such image " + make_reference(name, tag));
  }
  COMT_TRY_STATUS(store_.remove_tag(it->first));
  references_.erase(it);
  return sweep_locked();
}

Status Registry::gc() {
  obs::Span span = obs::maybe_span(tracer_, "registry.gc", obs::kNoSpan, "registry");
  if (gcs_ != nullptr) gcs_->add();
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return sweep_locked();
}

Status Registry::sweep_locked() {
  // Mark: everything any reference reaches stays.
  std::set<oci::Digest> reachable;
  for (const auto& [reference, digest] : references_) {
    COMT_TRY(oci::Image image, store_.load_image(digest));
    reachable.insert(digest);
    reachable.insert(image.manifest.config.digest);
    for (const oci::Descriptor& layer : image.manifest.layers) {
      reachable.insert(layer.digest);
    }
  }
  // Sweep: unreferenced, unpinned blobs are reclaimed and counted. A pinned
  // blob belongs to a live journaled rebuild — its resume still needs the
  // bytes even though no reference names them anymore.
  for (const oci::Digest& digest : store_.blob_digests()) {
    if (reachable.count(digest) != 0 || store_.is_pinned(digest)) continue;
    std::uint64_t freed = store_.remove_blob(digest);
    if (freed == 0) continue;
    transfer_.reclaimed_bytes += freed;
    ++transfer_.removed_blobs;
    // The chunk-level copy follows the blob out: chunks the manifest no
    // longer references (and nothing else does) are reclaimed too. A chunk
    // shared with a surviving blob's manifest keeps its refcount and stays.
    if (chunks_ != nullptr) {
      auto chunk_freed = chunks_->erase_blob(digest.value);
      if (chunk_freed.ok()) transfer_.reclaimed_bytes += chunk_freed.value();
    }
  }
  return Status::success();
}

Status Registry::pin(std::string_view name, std::string_view tag) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = references_.find(make_reference(name, tag));
  if (it == references_.end()) {
    return make_error(Errc::not_found, "registry: no such image " + make_reference(name, tag));
  }
  COMT_TRY(oci::Image image, store_.load_image(it->second));
  store_.pin_blob(it->second);
  store_.pin_blob(image.manifest.config.digest);
  for (const oci::Descriptor& layer : image.manifest.layers) store_.pin_blob(layer.digest);
  if (chunks_ != nullptr) {
    chunks_->pin_blob(it->second.value);
    chunks_->pin_blob(image.manifest.config.digest.value);
    for (const oci::Descriptor& layer : image.manifest.layers) {
      chunks_->pin_blob(layer.digest.value);
    }
  }
  return Status::success();
}

Status Registry::unpin(std::string_view name, std::string_view tag) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = references_.find(make_reference(name, tag));
  if (it == references_.end()) {
    return make_error(Errc::not_found, "registry: no such image " + make_reference(name, tag));
  }
  COMT_TRY(oci::Image image, store_.load_image(it->second));
  store_.unpin_blob(it->second);
  store_.unpin_blob(image.manifest.config.digest);
  for (const oci::Descriptor& layer : image.manifest.layers) store_.unpin_blob(layer.digest);
  if (chunks_ != nullptr) {
    chunks_->unpin_blob(it->second.value);
    chunks_->unpin_blob(image.manifest.config.digest.value);
    for (const oci::Descriptor& layer : image.manifest.layers) {
      chunks_->unpin_blob(layer.digest.value);
    }
  }
  return Status::success();
}

Result<std::string> Registry::fetch_blob(const oci::Digest& digest) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return store_.get_blob(digest);
}

oci::FsckReport Registry::fsck(bool repair, const oci::BlobFetcher& origin) {
  obs::Span span = obs::maybe_span(tracer_, "registry.fsck", obs::kNoSpan, "registry");
  span.annotate("repair", std::uint64_t{repair ? 1u : 0u});
  if (fscks_ != nullptr) fscks_->add();
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (!repair) return oci::fsck(store_);
  oci::FsckReport report = oci::fsck_repair(store_, origin);
  // Repair may have cut dangling tags from the store index; mirror that back
  // into the reference map so resolve()/pull() stop offering broken images.
  references_.clear();
  for (const auto& [reference, digest] : store_.index_entries()) {
    references_[reference] = digest;
  }
  return report;
}

Stats Registry::stats() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  Stats out;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    out = transfer_;
  }
  out.repositories = references_.size();
  out.blobs = store_.blob_count();
  out.stored_bytes = store_.total_blob_bytes();
  return out;
}

}  // namespace comt::registry
