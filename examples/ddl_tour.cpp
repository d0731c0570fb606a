// DDL tour: declare a small application schema entirely in the definition
// language, load it, and let the catalog explain the physical design each
// declaration earns.
#include <iostream>

#include "catalog/catalog.h"
#include "catalog/query_lang.h"
#include "lang/ddl.h"
#include "query/executor.h"
#include "timex/calendar.h"

using namespace tempspec;

int main() {
  Catalog catalog;
  auto clock = std::make_shared<LogicalClock>(
      FromCivil(CivilDateTime{1992, 2, 3, 0, 0, 0, 0}), Duration::Seconds(30));
  RelationOptions base;
  base.clock = clock;

  const char* statements[] = {
      R"(CREATE EVENT RELATION reactor_samples (
             sensor INT64 KEY,
             kelvin DOUBLE
         ) GRANULARITY 1s
         WITH DEGENERATE, STRICT TEMPORAL REGULAR 10s)",

      R"(CREATE EVENT RELATION plant_temperatures (
             sensor INT64 KEY,
             celsius DOUBLE
         ) GRANULARITY 1s
         WITH DELAYED RETROACTIVE 30s, RETROACTIVELY BOUNDED 120s)",

      R"(CREATE EVENT RELATION payroll_deposits (
             employee INT64 KEY,
             amount DOUBLE
         ) GRANULARITY 1s
         WITH EARLY STRONGLY PREDICTIVELY BOUNDED 3d 7d, VALID REGULAR 1mo)",

      R"(CREATE INTERVAL RELATION assignments (
             employee INT64 KEY,
             project STRING
         ) GRANULARITY 1h
         WITH VT_BEGIN PREDICTIVE,
              STRICT VALID INTERVAL REGULAR 1w,
              CONTIGUOUS PER SURROGATE)",

      R"(CREATE EVENT RELATION bank_postings (
             account INT64 KEY,
             amount DOUBLE
         ) WITH PREDICTIVE DETERMINED BY NEXT(1day, 8h))",
  };

  for (const char* ddl : statements) {
    auto rel = catalog.CreateRelationFromDdl(ddl, base);
    rel.status().Check();
    std::cout << "Registered " << (*rel)->schema().relation_name() << "\n";
  }

  // A statement the validator rejects: the bands contradict.
  auto bad = catalog.CreateRelationFromDdl(
      "CREATE EVENT RELATION impossible (id INT64 KEY) "
      "WITH RETROACTIVE, EARLY PREDICTIVE 3d",
      base);
  std::cout << "\nContradictory declaration:\n  " << bad.status().ToString()
            << "\n\n";

  // The catalog can render every declaration back to canonical DDL...
  TemporalRelation* payroll = catalog.Get("payroll_deposits").ValueOrDie();
  std::cout << "Canonical DDL round-trip:\n"
            << ToDdl(payroll->schema(), payroll->specializations()) << "\n\n";

  // ...and explain the design implications of each.
  std::cout << catalog.Describe();

  // The determined relation computes its valid times: a posting stored at
  // 14:30 is valid at the next 8:00 a.m., and anything else is rejected.
  TemporalRelation* postings = catalog.Get("bank_postings").ValueOrDie();
  clock->SetTo(FromCivil(CivilDateTime{1992, 2, 3, 14, 30, 0, 0}));
  const TimePoint next8am = FromCivil(CivilDateTime{1992, 2, 4, 8, 0, 0, 0});
  auto ok = postings->InsertEvent(1, next8am, Tuple{int64_t{1}, 250.0});
  std::cout << "Posting valid at next 8:00: "
            << (ok.ok() ? "accepted" : ok.status().ToString()) << "\n";
  clock->SetTo(FromCivil(CivilDateTime{1992, 2, 3, 15, 0, 0, 0}));
  auto wrong = postings->InsertEvent(
      1, FromCivil(CivilDateTime{1992, 2, 4, 9, 0, 0, 0}),
      Tuple{int64_t{1}, 250.0});
  std::cout << "Posting valid at 9:00 instead:\n  " << wrong.status().ToString()
            << "\n\n";

  // Query statements close the loop: ingest a few reactor samples and ask
  // the three query classes in text.
  TemporalRelation* reactor = catalog.Get("reactor_samples").ValueOrDie();
  for (int i = 0; i < 6; ++i) {
    clock->SetTo(FromCivil(CivilDateTime{1992, 2, 5, 0, 0, 0, 0}) +
                 Duration::Seconds(10 * i));
    reactor->InsertEvent(1, clock->Peek(), Tuple{int64_t{1}, 550.0 + i}).status().Check();
  }
  for (const char* q : {
           "CURRENT reactor_samples",
           "EXPLAIN TIMESLICE reactor_samples AT '1992-02-05 00:00:30'",
           "EXPLAIN ANALYZE TIMESLICE reactor_samples AT '1992-02-05 00:00:30'",
           "TIMESLICE reactor_samples AT '1992-02-05 00:00:30'",
           "ROLLBACK reactor_samples TO '1992-02-05 00:00:20'",
           "SHOW SPECIALIZATION reactor_samples",
           "SHOW SLOW QUERIES LIMIT 3",
       }) {
    std::cout << "> " << q << "\n"
              << ExecuteQuery(catalog, q).ValueOrDie().ToString() << "\n";
  }
  return 0;
}
