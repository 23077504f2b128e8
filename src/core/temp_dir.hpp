// A private scratch directory: made with mkdtemp, so unique per call and
// per process (concurrent runs never share one), and removed with its
// contents on destruction.
#pragma once

#include <stdlib.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace autonet::core {

class TempDir {
 public:
  /// Creates `<system temp dir>/<prefix>-XXXXXX`; throws
  /// std::system_error when it cannot.
  explicit TempDir(std::string_view prefix = "autonet")
      : path_((std::filesystem::temp_directory_path() / prefix).string() + "-XXXXXX") {
    if (::mkdtemp(path_.data()) == nullptr) {
      const int error = errno;
      throw std::system_error(error, std::generic_category(),
                              "cannot create scratch directory " + path_);
    }
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace autonet::core
