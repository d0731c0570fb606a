#include "catalog/query_service.h"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "lang/ddl.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace tempspec {

namespace {

std::string FirstVerb(const std::string& statement) {
  size_t i = 0;
  while (i < statement.size() &&
         std::isspace(static_cast<unsigned char>(statement[i]))) {
    ++i;
  }
  std::string verb;
  while (i < statement.size() &&
         (std::isalnum(static_cast<unsigned char>(statement[i])) ||
          statement[i] == '_')) {
    verb.push_back(static_cast<char>(
        std::toupper(static_cast<unsigned char>(statement[i]))));
    ++i;
  }
  return verb;
}

Status EnsureDirectory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::IOError("cannot create directory '", path, "': ",
                           ec.message());
  }
  return Status::OK();
}

}  // namespace

QueryService::QueryService(QueryServiceOptions options)
    : options_(std::move(options)) {}

std::string QueryService::SchemasPath() const {
  return options_.data_dir + "/schemas.sql";
}

RelationOptions QueryService::BaseFor(
    const std::string& relation_name) const {
  RelationOptions base = options_.relation_base;
  base.schema = nullptr;
  base.specializations = {};
  if (options_.data_dir.empty()) {
    base.storage.directory.clear();
  } else {
    base.storage.directory =
        options_.data_dir + "/relations/" + relation_name;
  }
  return base;
}

Status QueryService::Open() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (options_.data_dir.empty()) return Status::OK();
  TS_RETURN_NOT_OK(EnsureDirectory(options_.data_dir + "/relations"));
  const std::string path = SchemasPath();
  if (!std::filesystem::exists(path)) return Status::OK();

  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '", path, "' for reading");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  // DDL contains no string literals, so top-level ';' splitting is safe
  // (mirrors Catalog::LoadSchemas, which we bypass to give each relation
  // its own storage directory).
  for (const std::string& statement : Split(buffer.str(), ';')) {
    bool blank = true;
    for (char c : statement) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    TS_ASSIGN_OR_RETURN(ParsedRelation parsed, ParseCreateRelation(statement));
    const std::string& name = parsed.schema->relation_name();
    RelationOptions base = BaseFor(name);
    TS_RETURN_NOT_OK(EnsureDirectory(base.storage.directory));
    TS_RETURN_NOT_OK(
        catalog_.CreateRelationFromDdl(statement, std::move(base)).status());
  }
  return Status::OK();
}

Status QueryService::PersistSchemas() {
  if (options_.data_dir.empty()) return Status::OK();
  return catalog_.SaveSchemas(SchemasPath());
}

Result<std::string> QueryService::ExecuteCreate(const std::string& statement) {
  // Parse first: the relation name picks the storage directory that
  // CreateRelationFromDdl needs up front.
  TS_ASSIGN_OR_RETURN(ParsedRelation parsed, ParseCreateRelation(statement));
  const std::string& name = parsed.schema->relation_name();
  RelationOptions base = BaseFor(name);
  if (!base.storage.directory.empty()) {
    TS_RETURN_NOT_OK(EnsureDirectory(base.storage.directory));
  }
  TS_RETURN_NOT_OK(
      catalog_.CreateRelationFromDdl(statement, std::move(base)).status());
  TS_RETURN_NOT_OK(PersistSchemas());
  TS_COUNTER_INC("service.ddl");
  return "created relation " + name + "\n";
}

Result<std::string> QueryService::ExecuteDrop(const std::string& statement) {
  // DROP RELATION <name>
  size_t i = 0;
  auto word = [&]() {
    while (i < statement.size() &&
           std::isspace(static_cast<unsigned char>(statement[i]))) {
      ++i;
    }
    std::string w;
    while (i < statement.size() &&
           (std::isalnum(static_cast<unsigned char>(statement[i])) ||
            statement[i] == '_')) {
      w.push_back(statement[i]);
      ++i;
    }
    return w;
  };
  word();  // DROP
  std::string name = word();
  std::string upper = name;
  for (auto& c : upper) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  if (upper == "RELATION") name = word();
  while (i < statement.size() &&
         (std::isspace(static_cast<unsigned char>(statement[i])) ||
          statement[i] == ';')) {
    ++i;
  }
  if (name.empty() || i < statement.size()) {
    return Status::InvalidArgument("expected DROP RELATION <name>");
  }
  TS_RETURN_NOT_OK(catalog_.Drop(name));
  TS_RETURN_NOT_OK(PersistSchemas());
  TS_COUNTER_INC("service.ddl");
  // Evict the relation's labeled latency series and recycle its label slot:
  // a create/drop churn must not grow the /metrics scrape.
  QueryLatencyFamily::Instance().ReleaseRelation(name);
  return "dropped relation " + name + "\n";
}

Result<std::string> QueryService::Execute(const std::string& statement,
                                          TraceContext* trace) {
  if (IsWriteStatement(statement)) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    const std::string verb = FirstVerb(statement);
    if (verb == "CREATE") return ExecuteCreate(statement);
    if (verb == "DROP") return ExecuteDrop(statement);
    TS_ASSIGN_OR_RETURN(QueryOutput out,
                        ExecuteQuery(catalog_, statement, trace));
    return out.ToString();
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  TS_ASSIGN_OR_RETURN(QueryOutput out,
                      ExecuteQuery(catalog_, statement, trace));
  return out.ToString();
}

std::vector<std::string> QueryService::RelationNames() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return catalog_.RelationNames();
}

}  // namespace tempspec
