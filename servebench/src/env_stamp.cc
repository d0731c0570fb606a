#include "env_stamp.h"

#include <sys/vfs.h>
#include <unistd.h>

#include <fstream>

#include "stats.h"
#include "util/thread_pool.h"

namespace servebench {

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

}  // namespace

std::string EnvStampJson(const std::string& varz_build,
                         const std::string& data_dir) {
  std::string out = "{";
  out += "\"build_type\": " + JsonString(SERVEBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + JsonString(__VERSION__);
  out += ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu_model\": " + JsonString(CpuModel());
  out += ", \"build_flags\": " + (varz_build.empty() ? "{}" : varz_build);
  out += ", \"server_workers\": " + std::to_string(kServerWorkers);
  out += ", \"morsel_pool\": " +
         std::to_string(tempspec::ThreadPool::DefaultThreadCount());
  out += ", \"data_dir_fs\": " + JsonString(FilesystemOf(data_dir));
  return out + "}";
}

}  // namespace servebench
