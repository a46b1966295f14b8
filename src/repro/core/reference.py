"""Former home of the dict reference kernel, now :mod:`repro.qa.reference`."""
from repro.qa.reference import schedule_graph_reference as schedule_graph_reference
