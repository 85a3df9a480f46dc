// One representative file opened once. Every loader reads (URP1) or maps
// (URPZ) through the same descriptor, and every whole-file read goes
// through InputFile::ReadAll: one read() into a caller's storage that was
// not zero-filled first and whose pages were faulted in by one call,
// instead of a zero fill that traps once per page. A loader that reads
// file after file passes the same storage each time, so only a file
// larger than every one before it allocates and faults pages in.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace useful::represent {

/// madvise(`advice`) over the whole pages inside [data, data + bytes); a
/// page the range only partly covers is left alone, and so is a range
/// that covers no whole page. The result is ignored: each caller's advice
/// is only a hint.
void AdviseWholePages(const void* data, std::size_t bytes, int advice);

/// Asks the kernel to fault in the whole pages of [data, data + bytes)
/// writable in one call (madvise MADV_POPULATE_WRITE). Only a hint: where
/// the headers or the kernel lack it, the pages fault in as they are
/// written.
void Prefault(void* data, std::size_t bytes);

/// Storage a file is read into. The image is the first `size` bytes,
/// exactly what read() wrote; the rest of `capacity` is left over from a
/// larger file read into the same storage before and is never part of it.
struct FileImage {
  std::unique_ptr<char[]> data;
  std::size_t size = 0;
  std::size_t capacity = 0;

  std::string_view view() const { return {data.get(), size}; }
};

/// A file opened read-only; the descriptor closes with the object.
class InputFile {
 public:
  /// Opens `path`. A failure is an IOError whose message is only the
  /// reason (strerror), so each caller says what it was opening.
  static Result<InputFile> Open(const std::string& path);

  InputFile(InputFile&& other) noexcept;
  InputFile& operator=(InputFile&&) = delete;
  ~InputFile();

  int fd() const { return fd_; }
  const std::string& path() const { return path_; }

  /// True when the file begins with `prefix`; false when it begins
  /// otherwise, is shorter, or cannot be read (a directory). Reads with
  /// pread, so the file offset stays at 0.
  bool StartsWith(std::string_view prefix) const;

  /// Reads the whole regular file into `*image`, from offset 0 in a loop
  /// that retries EINTR. The storage is reused when the file fits in its
  /// capacity; otherwise it is replaced by storage of the file's size,
  /// pre-faulted. IOError "<path>: <reason>" when the file cannot be
  /// sized or is not a regular file, and "read failed: <path>" when read
  /// fails or the file ends early; on any error `image->size` is 0.
  Status ReadAll(FileImage* image) const;

 private:
  InputFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_;
  std::string path_;
};

/// Opens `path` and reads it with ReadAll into fresh storage: the loader
/// of URP1 files by path (TermTable::Load, LoadRepresentative). IOError
/// "cannot open for reading: <path>" when it cannot be opened.
Result<FileImage> ReadFileImage(const std::string& path);

}  // namespace useful::represent
