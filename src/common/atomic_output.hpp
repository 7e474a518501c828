// Output files that are replaced only once they are complete.
//
// `ipfs_sim` streams multi-megabyte exports.  Writing them straight into
// the target truncates a previous result at open, so an interrupted or
// failed run destroys it.  `AtomicOutput` writes a regular-file target
// through a sibling temporary file and renames it over the target only
// after the last flush succeeds; any failure, an uncommitted destruction,
// or a SIGINT/SIGTERM removes the temporary and leaves the target as it
// was.  Other targets (devices such as /dev/full, FIFOs, symlinks) are
// written directly, since there is nothing to rename over.
#pragma once

#include <fstream>
#include <ostream>
#include <string>

namespace ipfs::common {

class AtomicOutput {
 public:
  /// Opens the temporary (or, for a non-regular target, the target
  /// itself).  Check `is_open()` before writing.
  explicit AtomicOutput(std::string path);
  /// Removes the temporary unless `commit()` succeeded.
  ~AtomicOutput();

  AtomicOutput(const AtomicOutput&) = delete;
  AtomicOutput& operator=(const AtomicOutput&) = delete;

  [[nodiscard]] bool is_open() const { return out_.is_open(); }
  [[nodiscard]] std::ostream& stream() noexcept { return out_; }

  /// Flush and close the stream, then rename the temporary over the
  /// target.  False if any write, the close or the rename failed; the
  /// temporary is gone either way.
  [[nodiscard]] bool commit();

 private:
  void discard() noexcept;

  std::string path_;
  std::string temp_;  ///< empty when the target is written directly
  std::ofstream out_;
  int signal_slot_ = -1;  ///< this temporary's entry in the signal cleanup list
};

}  // namespace ipfs::common
