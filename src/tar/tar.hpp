// POSIX ustar archives over in-memory filesystems.
//
// OCI layers are tarballs; this module converts between a vfs::Filesystem
// (representing one layer's tree, whiteouts included as plain files) and a
// byte blob in ustar format. Long paths use the GNU 'L' long-name extension.
#pragma once

#include <string>
#include <string_view>

#include "support/error.hpp"
#include "vfs/vfs.hpp"

namespace comt::tar {

/// Serializes every node of `tree` into a ustar archive. Entries are emitted
/// in sorted path order, so equal trees produce byte-identical archives
/// (deterministic layer digests). Timestamps are fixed at zero for the same
/// reason.
std::string pack(const vfs::Filesystem& tree);

/// Parses a ustar archive produced by pack() (or compatible) back into a
/// filesystem tree. Damage reads as Errc::corrupt, never as a plausible
/// tree: every header's checksum is checked, a member must fit in the
/// archive, and the archive must end with a zero block (an archive cut at a
/// member boundary has none).
Result<vfs::Filesystem> unpack(std::string_view archive);

}  // namespace comt::tar
