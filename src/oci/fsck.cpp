#include "oci/fsck.hpp"

#include <set>

#include "json/json.hpp"

namespace comt::oci {
namespace {

/// Scan result plus the blob digests some reference (index or manifest)
/// reaches — repair treats unreferenced damage as quarantinable orphans.
struct Scan {
  FsckReport report;
  std::set<Digest> referenced;
};

void count(FsckReport& report, const FsckFinding& finding) {
  switch (finding.issue) {
    case FsckIssue::corrupt_blob: ++report.corrupt; break;
    case FsckIssue::truncated_blob: ++report.truncated; break;
    case FsckIssue::missing_blob: ++report.missing; break;
    case FsckIssue::dangling_manifest: ++report.dangling; break;
  }
}

void add_finding(FsckReport& report, FsckFinding finding) {
  count(report, finding);
  report.findings.push_back(std::move(finding));
}

Scan scan_layout(const Layout& layout) {
  Scan scan;
  // Blob digests already reported as damaged, so a blob shared by several
  // manifests (or hit again by the orphan sweep) is found exactly once.
  std::set<Digest> reported;

  auto check_blob = [&](const Descriptor& descriptor, const std::string& context) {
    scan.referenced.insert(descriptor.digest);
    auto content = layout.get_blob(descriptor.digest);
    if (!content.ok()) {
      if (reported.insert(descriptor.digest).second) {
        add_finding(scan.report,
                    {FsckIssue::missing_blob, descriptor.digest, context, FsckAction::none});
      }
      return;
    }
    if (Digest::of_blob(content.value()) == descriptor.digest) return;
    if (!reported.insert(descriptor.digest).second) return;
    // Shorter than the descriptor says: a partially flushed write. Otherwise
    // the length is right (or unknowable) and the bytes are just wrong.
    FsckIssue issue = content.value().size() < descriptor.size
                          ? FsckIssue::truncated_blob
                          : FsckIssue::corrupt_blob;
    add_finding(scan.report, {issue, descriptor.digest, context, FsckAction::none});
  };

  for (const auto& [tag, manifest_digest] : layout.index_entries()) {
    scan.referenced.insert(manifest_digest);
    const std::string context = "tag '" + tag + "'";
    auto manifest_blob = layout.get_blob(manifest_digest);
    bool manifest_ok = manifest_blob.ok() &&
                       Digest::of_blob(manifest_blob.value()) == manifest_digest;
    Result<Manifest> manifest = manifest_ok
                                    ? [&]() -> Result<Manifest> {
                                        COMT_TRY(json::Value doc, json::parse(manifest_blob.value()));
                                        return Manifest::from_json(doc);
                                      }()
                                    : make_error(Errc::corrupt, "manifest blob damaged");
    if (!manifest.ok()) {
      // Missing, damaged or unparseable manifest: the tag dangles. Reported
      // per tag (each needs its own cut), so no blob-level dedup here.
      FsckFinding finding{FsckIssue::dangling_manifest, manifest_digest, context,
                          FsckAction::none};
      finding.tag = tag;
      add_finding(scan.report, std::move(finding));
      reported.insert(manifest_digest);
      continue;
    }
    check_blob(manifest.value().config, context + " config");
    for (std::size_t i = 0; i < manifest.value().layers.size(); ++i) {
      check_blob(manifest.value().layers[i], context + " layer " + std::to_string(i));
    }
  }

  // Orphan sweep: blobs no reference vouches for still must hash correctly.
  for (const Digest& digest : layout.blob_digests()) {
    if (scan.referenced.count(digest) != 0 || reported.count(digest) != 0) continue;
    auto content = layout.get_blob(digest);
    if (content.ok() && Digest::of_blob(content.value()) == digest) continue;
    add_finding(scan.report,
                {FsckIssue::corrupt_blob, digest, "unreferenced blob", FsckAction::none});
  }
  return scan;
}

/// Fetches `digest` from the origin and stores it iff the bytes verify.
bool refetch(Layout& layout, const BlobFetcher& origin, const Digest& digest) {
  if (!origin) return false;
  auto fetched = origin(digest);
  if (!fetched.ok()) return false;
  if (Digest::of_blob(fetched.value()) != digest) return false;  // origin lies
  layout.put_blob(std::move(fetched).value(), kMediaTypeLayer);
  return true;
}

}  // namespace

const char* to_string(FsckIssue issue) {
  switch (issue) {
    case FsckIssue::corrupt_blob: return "corrupt-blob";
    case FsckIssue::truncated_blob: return "truncated-blob";
    case FsckIssue::missing_blob: return "missing-blob";
    case FsckIssue::dangling_manifest: return "dangling-manifest";
  }
  return "unknown";
}

FsckReport fsck(const Layout& layout) {
  Scan scan = scan_layout(layout);
  scan.report.remaining = scan.report.findings.size();
  return scan.report;
}

FsckReport fsck_repair(Layout& layout, const BlobFetcher& origin) {
  Scan scan = scan_layout(layout);
  FsckReport& report = scan.report;

  for (FsckFinding& finding : report.findings) {
    switch (finding.issue) {
      case FsckIssue::missing_blob:
        if (refetch(layout, origin, finding.digest)) {
          finding.action = FsckAction::refetched;
          ++report.refetched;
        }
        break;
      case FsckIssue::corrupt_blob:
      case FsckIssue::truncated_blob: {
        const bool orphan = scan.referenced.count(finding.digest) == 0;
        // Referenced damage wants the true bytes back; orphaned damage is
        // quarantined. Healing in place is allowed even for pinned blobs
        // (the digest's true content is exactly what the pin protects), but
        // a pinned blob is never dropped.
        if (!orphan && refetch(layout, origin, finding.digest)) {
          finding.action = FsckAction::refetched;
          ++report.refetched;
        } else if (!layout.is_pinned(finding.digest) &&
                   layout.remove_blob(finding.digest) > 0) {
          finding.action = FsckAction::dropped;
          ++report.dropped;
        }
        break;
      }
      case FsckIssue::dangling_manifest:
        // A cut whose index write fails leaves the tag in place, so the
        // rescan counts it as remaining.
        if (refetch(layout, origin, finding.digest)) {
          finding.action = FsckAction::refetched;
          ++report.refetched;
        } else if (auto cut = layout.remove_tag(finding.tag); cut.ok() && cut.value()) {
          finding.action = FsckAction::dropped;
          ++report.dropped;
        }
        break;
    }
  }

  report.remaining = scan_layout(layout).report.findings.size();
  return report;
}

}  // namespace comt::oci
