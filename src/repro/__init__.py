"""PushdownDB reproduction: an S3 Select simulator, a PySpark DataSource
over it, and the paper's operators built on both.

``session(app_name)`` builds the SparkSession the test suite, the
benchmarks and ``jobs/run_figure.py`` share; pyspark is imported only
when it is called.
"""


def session(app_name: str):
    """The local SparkSession with the repo's three session confs.

    Broadcast joins are disabled so the paper's shuffle/join algorithms
    actually exercise the shuffle path at SF~=0.1. Master and driver
    memory are launch-time settings (``PYSPARK_SUBMIT_ARGS`` or
    spark-submit), not set here.
    """
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
